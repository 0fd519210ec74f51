package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const suiteJSON = `{
  "manifest": {"nproc": 2, "git_describe": "abc1234"},
  "workloads": [
    {"workload": "analytic_points", "sim_digest": "19733ddec82d7ae0", "attempted": 319, "failed": 0,
     "end_to_end": [{"name": "work_per_s", "unit": "1/s", "value": 14.1}, {"name": "setup_s", "unit": "s", "value": 0.74}],
     "per_layer": [{"name": "analysis.analyze_ms.flatfly", "value": 118.5}, {"name": "sim.new_ms", "value": 0}]}
  ]
}`

// TestRecordRoundTrip drives run() in a scratch directory: a first record
// creates the trajectory, a later PR appends in PR order, re-recording a PR
// replaces it, and rows the traced run did not measure are dropped.
func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in, trajectory := filepath.Join(dir, "suite.json"), filepath.Join(dir, "BENCH_flatbench.json")
	if err := os.WriteFile(in, []byte(suiteJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, pr := range []int{16, 13, 16} {
		if err := run(pr, []string{in}, trajectory); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(trajectory)
	if err != nil {
		t.Fatal(err)
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].PR != 13 || recs[1].PR != 16 {
		t.Fatalf("trajectory holds %+v, want PRs 13 then 16", recs)
	}
	w := recs[1].Workloads[0]
	if w.Digest != "19733ddec82d7ae0" || w.Attempted != 319 || w.EndToEnd["work_per_s"] != 14.1 || w.EndToEnd["setup_s"] != 0.74 {
		t.Errorf("end-to-end record %+v", w)
	}
	if recs[1].Runs != 0 || w.Spread != nil {
		t.Errorf("a record of one run has runs %d and spread %v, want neither", recs[1].Runs, w.Spread)
	}
	if len(w.PerLayer) != 1 || w.PerLayer["analysis.analyze_ms.flatfly"] != 118.5 {
		t.Errorf("per-layer rows %v, want the one measured row", w.PerLayer)
	}

	if err := run(0, []string{in}, trajectory); err == nil {
		t.Error("a record without a PR number was accepted")
	}
	if err := os.WriteFile(in, []byte(`{"workloads": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(17, []string{in}, trajectory); err == nil {
		t.Error("an empty suite report was recorded")
	}
}

// TestDiff prints the last two of three records: all four end-to-end
// metrics, only the per-layer rows that moved by more than a tenth, a
// changed digest flagged, and nothing from the older record.
func TestDiff(t *testing.T) {
	trajectory := filepath.Join(t.TempDir(), "BENCH_flatbench.json")
	recs := `[
  {"pr": 19, "workloads": [{"workload": "sweep_warm", "failed": 0, "end_to_end": {"work_per_s": 1}}]},
  {"pr": 21, "workloads": [{"workload": "sweep_warm", "sim_digest": "aaaa", "failed": 0,
     "end_to_end": {"setup_s": 2, "work_per_s": 70, "op_p50_ms": 9, "peak_rss_mb": 64},
     "per_layer": {"sim.restore_ms": 8, "sim.snapshot_bytes": 115710, "sweep.job_ms_p95": 120, "sim.new_ms": 0.3}}]},
  {"pr": 23, "workloads": [{"workload": "sweep_warm", "sim_digest": "bbbb", "failed": 0,
     "end_to_end": {"setup_s": 1.5, "work_per_s": 91, "op_p50_ms": 8, "peak_rss_mb": 48},
     "per_layer": {"sim.restore_ms": 4, "sim.snapshot_bytes": 115710, "sweep.job_ms_p95": 131, "sweep.warm_hits": 50}},
    {"workload": "core_ur", "failed": 0, "end_to_end": {"work_per_s": 8000}}]}
]`
	if err := os.WriteFile(trajectory, []byte(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := diff(&out, trajectory); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"PR 21", "PR 23", "sweep_warm  sim_digest aaaa -> bbbb",
		"setup_s", "op_p50_ms", "peak_rss_mb",
		"work_per_s                                       70             91    +30.0%",
		"sim.restore_ms                                    8              4    -50.0%",
		"core_ur: not in PR 21's record",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output lacks %q:\n%s", want, got)
		}
	}
	for _, unwanted := range []string{"PR 19", "sim.snapshot_bytes", "sweep.job_ms_p95", "sim.new_ms", "sweep.warm_hits"} {
		if strings.Contains(got, unwanted) {
			t.Errorf("diff output mentions %q (unmoved, one-sided or from an older record):\n%s", unwanted, got)
		}
	}

	if err := os.WriteFile(trajectory, []byte(`[{"pr": 23, "workloads": []}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := diff(&out, trajectory); err == nil {
		t.Error("a trajectory of one record was diffed")
	}
}

// suiteRun is one run of a two-workload suite with the given analytic
// work_per_s, peak_rss_mb and per-layer row.
func suiteRun(work, rss, analyzeMS float64, digest string) string {
	return fmt.Sprintf(`{"manifest": {"nproc": 2},
  "workloads": [
    {"workload": "analytic_points", "sim_digest": %q, "attempted": %d, "failed": 0,
     "end_to_end": [{"name": "work_per_s", "value": %g}, {"name": "peak_rss_mb", "value": %g}],
     "per_layer": [{"name": "analysis.analyze_ms.dragonfly", "value": %g}, {"name": "sim.new_ms", "value": 0}]},
    {"workload": "core_ur", "sim_digest": "aaaa", "attempted": 10, "failed": 1,
     "end_to_end": [{"name": "work_per_s", "value": 8000}]}
  ]
}`, digest, int(work*14), work, rss, analyzeMS)
}

// TestRecordMedianSpread records three runs: each value is their median,
// the spread is their [min, max], failures add up, a digest that does not
// repeat is refused, and -diff marks a move inside either spread as noise.
func TestRecordMedianSpread(t *testing.T) {
	dir := t.TempDir()
	trajectory := filepath.Join(dir, "BENCH_flatbench.json")
	write := func(runs ...string) []string {
		var ins []string
		for i, r := range runs {
			in := filepath.Join(dir, fmt.Sprintf("run%d.json", i))
			if err := os.WriteFile(in, []byte(r), 0o644); err != nil {
				t.Fatal(err)
			}
			ins = append(ins, in)
		}
		return ins
	}
	if err := run(25, write(suiteRun(26, 42, 120, "d1"), suiteRun(24, 43, 130, "d1"), suiteRun(25, 41, 110, "d1")), trajectory); err != nil {
		t.Fatal(err)
	}
	recs, err := load(trajectory)
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Runs != 3 || len(r.Workloads) != 2 {
		t.Fatalf("record %+v, want 3 runs of 2 workloads", r)
	}
	w := r.Workloads[0]
	if w.EndToEnd["work_per_s"] != 25 || w.Spread["work_per_s"] != [2]float64{24, 26} ||
		w.EndToEnd["peak_rss_mb"] != 42 || w.Spread["peak_rss_mb"] != [2]float64{41, 43} {
		t.Errorf("end-to-end %v spread %v, want work_per_s 25 in [24, 26], peak_rss_mb 42 in [41, 43]", w.EndToEnd, w.Spread)
	}
	if w.Attempted != 350 || w.PerLayer["analysis.analyze_ms.dragonfly"] != 120 ||
		w.Spread["analysis.analyze_ms.dragonfly"] != [2]float64{110, 130} || len(w.PerLayer) != 1 {
		t.Errorf("attempted %d, per-layer %v, spread %v", w.Attempted, w.PerLayer, w.Spread)
	}
	if f := r.Workloads[1].Failed; f != 3 {
		t.Errorf("core_ur failed %d over three runs, want 3", f)
	}
	if err := run(26, write(suiteRun(26, 42, 120, "d1"), suiteRun(26, 42, 120, "d2")), trajectory); err == nil ||
		!strings.Contains(err.Error(), "sim_digest d2 in run 2") {
		t.Errorf("runs with different digests: %v", err)
	}

	// work_per_s 25 -> 36.5 leaves both spreads. peak_rss_mb 42 -> 42.5
	// lands inside the old spread, and the per-layer row 120 -> 105 moves
	// by more than a tenth but the old median lies inside the new spread.
	if err := run(29, write(suiteRun(36, 42.5, 100, "d3"), suiteRun(37, 42.4, 105, "d3"), suiteRun(36.5, 42.6, 125, "d3")), trajectory); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := diff(&out, trajectory); err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{} // analytic_points's rows, printed first
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 && lines[f[0]] == "" {
			lines[f[0]] = l
		}
	}
	for name, noise := range map[string]bool{"work_per_s": false, "peak_rss_mb": true, "analysis.analyze_ms.dragonfly": true} {
		if l, ok := lines[name]; !ok || strings.HasSuffix(l, "noise") != noise {
			t.Errorf("%s: want noise %t, got line %q in\n%s", name, noise, l, out.String())
		}
	}
}
