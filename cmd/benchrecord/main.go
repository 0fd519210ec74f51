// Command benchrecord appends one flatbench suite run to the committed
// performance trajectory, BENCH_flatbench.json at the repository root: one
// record per PR, so that a PR's effect on any workload is a diff of that
// file and not a sentence in CHANGES.md.
//
//	bash bench/run.sh -seed 1 -trace 1 -out .bench_build/record.json
//	go run ./cmd/benchrecord -pr 16 -in .bench_build/record.json
//
// (`make bench-record PR=16` does both.) A record keeps the suite's
// manifest, and per workload the digest, the attempted/failed counts, the
// four end-to-end metrics and the per-layer rows the traced run measured —
// a per-layer row of 0 means the workload does not use that layer, and is
// dropped. The file is a JSON array in PR order; a PR recorded twice keeps
// its latest run.
//
//	go run ./cmd/benchrecord -diff
//
// prints the last two records side by side: per workload the four
// end-to-end metrics, and every per-layer row that moved by more than
// 10 %. Each record is one suite run on a host that swings 20-40 %, so the
// diff says where to look; a claim still needs alternating pairs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// suite is the part of `flatbench -out` a record keeps.
type suite struct {
	Manifest  json.RawMessage `json:"manifest"`
	Workloads []struct {
		Workload  string   `json:"workload"`
		Digest    string   `json:"sim_digest"`
		Attempted int      `json:"attempted"`
		Failed    int      `json:"failed"`
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	} `json:"workloads"`
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// record is one PR's entry in the trajectory.
type record struct {
	PR int `json:"pr"`
	// Source says where the numbers came from when that is not one run of
	// `make bench-record` at the PR's own commit.
	Source    string          `json:"source,omitempty"`
	Manifest  json.RawMessage `json:"manifest,omitempty"`
	Workloads []workload      `json:"workloads"`
}

type workload struct {
	Workload  string             `json:"workload"`
	Digest    string             `json:"sim_digest,omitempty"`
	Attempted int                `json:"attempted,omitempty"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func fromSuite(pr int, s suite) (record, error) {
	if len(s.Workloads) == 0 {
		return record{}, fmt.Errorf("suite report has no workloads")
	}
	r := record{PR: pr, Manifest: s.Manifest}
	for _, w := range s.Workloads {
		out := workload{Workload: w.Workload, Digest: w.Digest, Attempted: w.Attempted, Failed: w.Failed,
			EndToEnd: map[string]float64{}}
		for _, m := range w.EndToEnd {
			out.EndToEnd[m.Name] = m.Value
		}
		for _, m := range w.PerLayer {
			if m.Value != 0 {
				if out.PerLayer == nil {
					out.PerLayer = map[string]float64{}
				}
				out.PerLayer[m.Name] = m.Value
			}
		}
		r.Workloads = append(r.Workloads, out)
	}
	return r, nil
}

// add puts r into the trajectory in PR order, replacing an earlier record
// of the same PR.
func add(recs []record, r record) []record {
	kept := recs[:0:0]
	for _, old := range recs {
		if old.PR != r.PR {
			kept = append(kept, old)
		}
	}
	kept = append(kept, r)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].PR < kept[j].PR })
	return kept
}

func run(pr int, in, trajectory string) error {
	if pr <= 0 {
		return fmt.Errorf("-pr must name the PR being recorded")
	}
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	rec, err := fromSuite(pr, s)
	if err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	recs, err := load(trajectory)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(add(recs, rec), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(trajectory, append(out, '\n'), 0o644)
}

// load reads the trajectory; a file that does not exist yet is empty.
func load(trajectory string) ([]record, error) {
	var recs []record
	data, err := os.ReadFile(trajectory)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", trajectory, err)
	}
	return recs, nil
}

// endToEnd is the order the four end-to-end metrics are printed in.
var endToEnd = []string{"setup_s", "work_per_s", "op_p50_ms", "peak_rss_mb"}

// movedBy is how far a per-layer row must move, relative to the older
// record, for diff to print it.
const movedBy = 0.10

// diff prints the last two records of the trajectory side by side.
func diff(w io.Writer, trajectory string) error {
	recs, err := load(trajectory)
	if err != nil {
		return err
	}
	if len(recs) < 2 {
		return fmt.Errorf("%s holds %d records, a diff needs two", trajectory, len(recs))
	}
	old, cur := recs[len(recs)-2], recs[len(recs)-1]
	before := map[string]workload{}
	for _, wl := range old.Workloads {
		before[wl.Workload] = wl
	}
	row := func(name string, a, b float64) {
		fmt.Fprintf(w, "  %-36s %14.6g %14.6g %+8.1f%%\n", name, a, b, 100*(b/a-1))
	}
	fmt.Fprintf(w, "%-38s %14s %14s %9s\n", "", fmt.Sprintf("PR %d", old.PR), fmt.Sprintf("PR %d", cur.PR), "change")
	for _, wl := range cur.Workloads {
		was, ok := before[wl.Workload]
		if !ok {
			fmt.Fprintf(w, "%s: not in PR %d's record\n", wl.Workload, old.PR)
			continue
		}
		fmt.Fprintf(w, "%s", wl.Workload)
		if was.Digest != "" && was.Digest != wl.Digest {
			fmt.Fprintf(w, "  sim_digest %s -> %s", was.Digest, wl.Digest)
		}
		if wl.Failed != 0 {
			fmt.Fprintf(w, "  failed %d", wl.Failed)
		}
		fmt.Fprintln(w)
		for _, name := range endToEnd {
			a, inOld := was.EndToEnd[name]
			b, inCur := wl.EndToEnd[name]
			if inOld && inCur {
				row(name, a, b)
			}
		}
		var moved []string
		for name, b := range wl.PerLayer {
			if a, ok := was.PerLayer[name]; ok && math.Abs(b/a-1) > movedBy {
				moved = append(moved, name)
			}
		}
		sort.Strings(moved)
		for _, name := range moved {
			row(name, was.PerLayer[name], wl.PerLayer[name])
		}
	}
	return nil
}

func main() {
	pr := flag.Int("pr", 0, "number of the PR this run records")
	in := flag.String("in", ".bench_build/record.json", "suite report written by `bash bench/run.sh -seed 1 -trace 1 -out FILE`")
	show := flag.Bool("diff", false, "print the last two records side by side and record nothing")
	flag.Parse()
	var err error
	if *show {
		err = diff(os.Stdout, "BENCH_flatbench.json")
	} else {
		err = run(*pr, *in, "BENCH_flatbench.json")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
}
