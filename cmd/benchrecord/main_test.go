package main

import (
	"encoding/json"
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
		if err := run(pr, in, trajectory); err != nil {
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
	if len(w.PerLayer) != 1 || w.PerLayer["analysis.analyze_ms.flatfly"] != 118.5 {
		t.Errorf("per-layer rows %v, want the one measured row", w.PerLayer)
	}

	if err := run(0, in, trajectory); err == nil {
		t.Error("a record without a PR number was accepted")
	}
	if err := os.WriteFile(in, []byte(`{"workloads": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(17, in, trajectory); err == nil {
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
