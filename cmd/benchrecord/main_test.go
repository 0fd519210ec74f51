package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
