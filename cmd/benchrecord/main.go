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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
	var recs []record
	if data, err := os.ReadFile(trajectory); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %w", trajectory, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	out, err := json.MarshalIndent(add(recs, rec), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(trajectory, append(out, '\n'), 0o644)
}

func main() {
	pr := flag.Int("pr", 0, "number of the PR this run records")
	in := flag.String("in", ".bench_build/record.json", "suite report written by `bash bench/run.sh -seed 1 -trace 1 -out FILE`")
	flag.Parse()
	if err := run(*pr, *in, "BENCH_flatbench.json"); err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
}
