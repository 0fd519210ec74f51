// Command benchrecord appends flatbench suite runs to the committed
// performance trajectory, BENCH_flatbench.json at the repository root: one
// record per PR, so that a PR's effect on any workload is a diff of that
// file and not a sentence in CHANGES.md.
//
//	for i in 1 2 3; do bash bench/run.sh -seed 1 -trace 1 -out .bench_build/record$i.json; done
//	go run ./cmd/benchrecord -pr 16 -in .bench_build/record1.json,.bench_build/record2.json,.bench_build/record3.json
//
// (`make bench-record PR=16` does both.) A record keeps the first run's
// manifest, and per workload the digest (which every run must repeat), the
// attempted/failed counts, the four end-to-end metrics and the per-layer
// rows the traced runs measured. Each value is the median over the runs,
// and beside it the record keeps the [min, max] spread of the runs. A
// per-layer row of 0 means the workload does not use that layer, and is
// dropped. The file is a JSON array in PR order; a PR recorded twice keeps
// its latest record.
//
//	go run ./cmd/benchrecord -diff
//
// prints the last two records side by side: per workload the four
// end-to-end metrics, and every per-layer row that moved by more than
// 10 %; then the paperfigs wall times, when both records hold them. A move
// that lands inside either record's spread is marked noise; records of a
// single run have no spread, so nothing in them is.
//
// With -paperfigs BIN the record also holds the wall time of the first
// end-to-end number a user waits for, `BIN -quick -fig all`: the total and
// each figure's, as the median (and spread) of three runs. A figure's time
// runs from its "generating" line on stderr to the next one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
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
	// Source says where the numbers came from when that is not
	// `make bench-record` at the PR's own commit.
	Source string `json:"source,omitempty"`
	// Runs is the number of suite runs the values are the median of;
	// records without it are one run.
	Runs      int             `json:"runs,omitempty"`
	Manifest  json.RawMessage `json:"manifest,omitempty"`
	Workloads []workload      `json:"workloads"`
	// Paperfigs is the wall time of `paperfigs -quick -fig all`; records
	// made without -paperfigs have none.
	Paperfigs *paperfigsTimes `json:"paperfigs_quick,omitempty"`
}

// paperfigsTimes is the wall time of `paperfigs -quick -fig all` over
// Runs runs: the whole run and each figure in the order it ran.
type paperfigsTimes struct {
	Runs    int       `json:"runs"`
	Total   figTime   `json:"total"`
	Figures []figTime `json:"figures"`
}

// figTime is one figure's (or the whole run's) median seconds and the
// [min, max] of the runs, to the millisecond.
type figTime struct {
	ID     string     `json:"id"`
	S      float64    `json:"s"`
	Spread [2]float64 `json:"spread"`
}

// figRuns is how many times -paperfigs runs the regeneration.
const figRuns = 3

// timePaperfigs runs `bin -quick -fig all` figRuns times into scratch
// directories and folds the wall times into their medians.
func timePaperfigs(bin string) (*paperfigsTimes, error) {
	var totals []float64
	var ids []string
	perFig := map[string][]float64{}
	for i := 0; i < figRuns; i++ {
		dir, err := os.MkdirTemp("", "paperfigs-quick")
		if err != nil {
			return nil, err
		}
		total, figs, err := runPaperfigs(bin, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		totals = append(totals, total)
		for _, f := range figs {
			if _, seen := perFig[f.ID]; !seen {
				ids = append(ids, f.ID)
			}
			perFig[f.ID] = append(perFig[f.ID], f.S)
		}
	}
	fold := func(id string, xs []float64) figTime {
		ms := func(s float64) float64 { return math.Round(s*1e3) / 1e3 }
		mid, spread := median(xs)
		return figTime{ID: id, S: ms(mid), Spread: [2]float64{ms(spread[0]), ms(spread[1])}}
	}
	t := &paperfigsTimes{Runs: figRuns, Total: fold("all", totals)}
	for _, id := range ids {
		t.Figures = append(t.Figures, fold(id, perFig[id]))
	}
	return t, nil
}

// runPaperfigs runs one quick regeneration into dir and returns its wall
// time and each figure's, in seconds.
func runPaperfigs(bin, dir string) (total float64, figs []figTime, err error) {
	cmd := exec.Command(bin, "-quick", "-fig", "all", "-out", dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	since := func() float64 { return time.Since(start).Seconds() }
	figs = figureStarts(stderr, since)
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s -quick -fig all: %w", bin, err)
	}
	total = since()
	// A figure runs until the next one starts; the last until exit.
	for i := range figs {
		end := total
		if i+1 < len(figs) {
			end = figs[i+1].S
		}
		figs[i].S = end - figs[i].S
	}
	return total, figs, nil
}

// figureStarts reads paperfigs' stderr and returns, for each
// "generating ID -> FILE" line, the figure's ID and the time clock read
// when the line arrived.
func figureStarts(r io.Reader, clock func() float64) []figTime {
	var figs []figTime
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "generating" {
			figs = append(figs, figTime{ID: f[1], S: clock()})
		}
	}
	return figs
}

type workload struct {
	Workload  string             `json:"workload"`
	Digest    string             `json:"sim_digest,omitempty"`
	Attempted int                `json:"attempted,omitempty"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Spread is the [min, max] of every end-to-end and per-layer value
	// over the runs.
	Spread map[string][2]float64 `json:"spread,omitempty"`
}

// spread returns the [min, max] the runs of w spanned for a metric of
// value v, or [v, v] for a record of one run.
func (w workload) spread(name string, v float64) [2]float64 {
	if s, ok := w.Spread[name]; ok {
		return s
	}
	return [2]float64{v, v}
}

// median returns the middle value of xs (the mean of the middle two for an
// even count) and their min and max.
func median(xs []float64) (mid float64, spread [2]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2, [2]float64{s[0], s[n-1]}
}

// fromSuites folds one or more runs of the suite into a record: per
// workload and metric the median over the runs, with its spread. Every run
// must report the same workloads and repeat each workload's digest.
func fromSuites(pr int, runs []suite) (record, error) {
	if len(runs) == 0 || len(runs[0].Workloads) == 0 {
		return record{}, fmt.Errorf("suite report has no workloads")
	}
	r := record{PR: pr, Manifest: runs[0].Manifest}
	if len(runs) > 1 {
		r.Runs = len(runs)
	}
	for wi, w := range runs[0].Workloads {
		out := workload{Workload: w.Workload, Digest: w.Digest, EndToEnd: map[string]float64{},
			PerLayer: map[string]float64{}, Spread: map[string][2]float64{}}
		var attempted []float64
		e2e, layer := map[string][]float64{}, map[string][]float64{}
		for ri, rep := range runs {
			if len(rep.Workloads) != len(runs[0].Workloads) || rep.Workloads[wi].Workload != w.Workload {
				return record{}, fmt.Errorf("run %d does not report the workloads of run 1", ri+1)
			}
			rw := rep.Workloads[wi]
			if rw.Digest != w.Digest {
				return record{}, fmt.Errorf("%s: sim_digest %s in run %d, %s in run 1", w.Workload, rw.Digest, ri+1, w.Digest)
			}
			attempted = append(attempted, float64(rw.Attempted))
			out.Failed += rw.Failed
			for _, m := range rw.EndToEnd {
				e2e[m.Name] = append(e2e[m.Name], m.Value)
			}
			for _, m := range rw.PerLayer {
				layer[m.Name] = append(layer[m.Name], m.Value)
			}
		}
		mid, _ := median(attempted)
		out.Attempted = int(mid)
		for name, xs := range e2e {
			out.EndToEnd[name], out.Spread[name] = median(xs)
		}
		for name, xs := range layer {
			if mid, spread := median(xs); mid != 0 {
				out.PerLayer[name], out.Spread[name] = mid, spread
			}
		}
		if len(runs) == 1 {
			out.Spread = nil
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

// run records the suite reports ins, and the paperfigs times figs when
// not nil, as PR pr's entry in trajectory.
func run(pr int, ins []string, figs *paperfigsTimes, trajectory string) error {
	if pr <= 0 {
		return fmt.Errorf("-pr must name the PR being recorded")
	}
	var runs []suite
	for _, in := range ins {
		data, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		var s suite
		if err := json.Unmarshal(data, &s); err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		runs = append(runs, s)
	}
	rec, err := fromSuites(pr, runs)
	if err != nil {
		return fmt.Errorf("%s: %w", strings.Join(ins, ","), err)
	}
	rec.Paperfigs = figs
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

// diff prints the last two records of the trajectory side by side, and
// marks a move that lands inside either record's spread as noise.
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
	row := func(name string, a, b float64, sa, sb [2]float64) {
		fmt.Fprintf(w, "  %-36s %14.6g %14.6g %+8.1f%%", name, a, b, 100*(b/a-1))
		if sa[0] <= b && b <= sa[1] || sb[0] <= a && a <= sb[1] {
			fmt.Fprint(w, "  noise")
		}
		fmt.Fprintln(w)
	}
	metricRow := func(was, wl workload, name string, a, b float64) {
		row(name, a, b, was.spread(name, a), wl.spread(name, b))
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
				metricRow(was, wl, name, a, b)
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
			metricRow(was, wl, name, was.PerLayer[name], wl.PerLayer[name])
		}
	}
	if old.Paperfigs != nil && cur.Paperfigs != nil {
		fmt.Fprintln(w, "paperfigs -quick -fig all (s)")
		a, b := old.Paperfigs.Total, cur.Paperfigs.Total
		row("total", a.S, b.S, a.Spread, b.Spread)
		before := map[string]figTime{}
		for _, f := range old.Paperfigs.Figures {
			before[f.ID] = f
		}
		for _, f := range cur.Paperfigs.Figures {
			if was, ok := before[f.ID]; ok && was.S > 0 { // analytic tables take under a millisecond
				row("fig "+f.ID, was.S, f.S, was.Spread, f.Spread)
			}
		}
	}
	return nil
}

func main() {
	pr := flag.Int("pr", 0, "number of the PR this run records")
	in := flag.String("in", ".bench_build/record.json", "comma-separated suite reports, each written by `bash bench/run.sh -seed 1 -trace 1 -out FILE`; the record keeps their median and spread")
	show := flag.Bool("diff", false, "print the last two records side by side and record nothing")
	paperfigs := flag.String("paperfigs", "", "paperfigs binary whose `-quick -fig all` wall time (total and per figure, median of 3 runs) the record also holds")
	flag.Parse()
	var err error
	switch {
	case *show:
		err = diff(os.Stdout, "BENCH_flatbench.json")
	case *paperfigs != "":
		var figs *paperfigsTimes
		if figs, err = timePaperfigs(*paperfigs); err == nil {
			err = run(*pr, strings.Split(*in, ","), figs, "BENCH_flatbench.json")
		}
	default:
		err = run(*pr, strings.Split(*in, ","), nil, "BENCH_flatbench.json")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
}
