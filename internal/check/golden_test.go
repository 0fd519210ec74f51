// Golden-run corpus: a fixed set of small sanitized simulations whose
// complete results are pinned in testdata/golden/*.json. Any change to
// simulator timing, routing decisions, RNG streams or the sweep job hash
// shows up as a corpus diff — intentional changes regenerate the corpus
// with `go test ./internal/check -run Golden -update`.
package check_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/sweep"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the golden-run corpus from current simulator output")

// goldenJobs is the corpus: one job per topology family plus multi-flit,
// adversarial-traffic and batch-mode coverage. Keep jobs small — the
// whole corpus must simulate in well under a second.
var goldenJobs = []sweep.Job{
	{Net: "flatfly", K: 4, N: 2, Alg: "UGAL-S", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.4, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "flatfly", K: 4, N: 2, Alg: "CLOS AD", Pattern: "WC",
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "flatfly", K: 4, N: 2, Alg: "MIN AD", Pattern: "UR", PacketSize: 4,
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "butterfly", K: 4, N: 2, Alg: "destination", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "foldedclos", K: 4, Uplinks: 2, Leaves: 4, Middles: 1,
		Alg: "adaptive sequential", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "hypercube", N: 4, Alg: "e-cube", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "flatfly", K: 4, N: 2, Alg: "VAL", Pattern: "UR",
		Mode: sweep.ModeBatch, BatchSize: 8, Seed: 7},
	{Net: "slimfly", Q: 5, P: 2, Alg: "min", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.2, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "slimfly", Q: 5, P: 2, Alg: "min", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.5, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "slimfly", Q: 5, P: 2, Alg: "ugal", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.2, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "slimfly", Q: 5, P: 2, Alg: "ugal", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.5, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "dragonfly", H: 2, Alg: "min", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.2, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "dragonfly", H: 2, Alg: "min", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.5, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "dragonfly", H: 2, Alg: "ugal", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.2, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "dragonfly", H: 2, Alg: "ugal", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.5, Warmup: 200, Measure: 300, Seed: 7},
	// The two-phase rules the jobs above leave out: Valiant under uniform
	// traffic and sequential UGAL under each family's adversary.
	{Net: "slimfly", Q: 5, P: 2, Alg: "val", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "slimfly", Q: 5, P: 2, Alg: "ugal-s", Pattern: "WC",
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "dragonfly", H: 2, Alg: "val", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "dragonfly", H: 2, Alg: "ugal-s", Pattern: "WC",
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	// Workload-engine coverage: the MMPP/burst arrival process, the
	// parameterized hotspot and incast patterns, and a collective
	// schedule contending with background traffic.
	{Net: "flatfly", K: 4, N: 2, Alg: "UGAL-S", Pattern: "UR",
		BurstPeak: 0.8, BurstLen: 12,
		Mode: sweep.ModeLoad, Load: 0.3, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "flatfly", K: 4, N: 2, Alg: "MIN AD", Pattern: "HS",
		Hot: []int{0, 5}, HotFraction: 0.2,
		Mode: sweep.ModeLoad, Load: 0.2, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "flatfly", K: 4, N: 2, Alg: "CLOS AD", Pattern: "IC",
		Mode: sweep.ModeLoad, Load: 0.05, Warmup: 200, Measure: 300, Seed: 7},
	{Net: "flatfly", K: 4, N: 2, Alg: "UGAL-S", Pattern: "UR",
		Mode: sweep.ModeCollective, Collective: "alltoall", Chunk: 2,
		Load: 0.1, Warmup: 100, Seed: 7},
}

// goldenName derives the corpus file name from the job's identity.
func goldenName(j sweep.Job) string {
	j = j.Normalize()
	return fmt.Sprintf("%s_%s.json", j.Net, j.Hash()[:12])
}

// floatEq compares two JSON numbers with a 1e-9 relative epsilon:
// simulation results are deterministic, but the corpus should not pin
// the last bits of float formatting.
func floatEq(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// jsonEq recursively compares decoded JSON values, applying floatEq to
// numbers; path labels the first difference for the failure message.
func jsonEq(path string, a, b any) (string, bool) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return path, false
		}
		for k := range av {
			if diff, ok := jsonEq(path+"."+k, av[k], bv[k]); !ok {
				return diff, false
			}
		}
		return "", true
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return path, false
		}
		for i := range av {
			if diff, ok := jsonEq(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); !ok {
				return diff, false
			}
		}
		return "", true
	case float64:
		bv, ok := b.(float64)
		if !ok || !floatEq(av, bv) {
			return path, false
		}
		return "", true
	default:
		if a != b {
			return path, false
		}
		return "", true
	}
}

// TestGoldenCorpusUnchecked replays the corpus through the bare
// simulator — no sanitizer attached, every hook nil, the allocation-free
// hot path fully enabled — and holds the full results to the same pinned
// files. Together with TestGoldenCorpus this pins two properties: the
// optimized core is bit-identical to the corpus, and attaching the
// sanitizer observes without perturbing.
func TestGoldenCorpusUnchecked(t *testing.T) {
	if *update {
		t.Skip("corpus is regenerated by TestGoldenCorpus")
	}
	for _, job := range goldenJobs {
		name := goldenName(job)
		t.Run(name, func(t *testing.T) {
			res, err := job.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			res.ElapsedSeconds = 0
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			var gv, wv any
			if err := json.Unmarshal(got, &gv); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want, &wv); err != nil {
				t.Fatal(err)
			}
			if diff, ok := jsonEq("result", wv, gv); !ok {
				t.Errorf("unchecked run drifted from the corpus at %s\ngot:  %s\nwant: %s", diff, got, want)
			}
		})
	}
}

// TestGoldenCorpusWarmRestored replays the load-mode corpus through the
// warm-snapshot store twice: a seeding pass checkpoints each job's
// warmed network, then a sanitized restored pass re-runs the measurement
// phase from those snapshots. Every restored result must match the
// pinned corpus byte for byte — restore-then-run is bit-identical to
// run-straight-through — while skipping each job's entire warm-up window,
// and no restored job may trip the sanitizer.
func TestGoldenCorpusWarmRestored(t *testing.T) {
	if *update {
		t.Skip("corpus is regenerated by TestGoldenCorpus")
	}
	var loadJobs []sweep.Job
	wantSaved := int64(0)
	for _, j := range goldenJobs {
		if j.Mode == sweep.ModeLoad {
			loadJobs = append(loadJobs, j)
			wantSaved += int64(j.Warmup)
		}
	}
	ws, err := sweep.OpenWarmStore(filepath.Join(t.TempDir(), "warm"))
	if err != nil {
		t.Fatal(err)
	}
	seed := &sweep.Engine{Workers: 2, Warm: ws}
	if _, err := seed.Run(context.Background(), loadJobs); err != nil {
		t.Fatal(err)
	}
	if st := seed.Stats(); st.WarmPuts != len(loadJobs) {
		t.Fatalf("seeding pass saved %d snapshots, want %d", st.WarmPuts, len(loadJobs))
	}
	eng := &sweep.Engine{Workers: 2, Warm: ws, Check: true}
	results, err := eng.Run(context.Background(), loadJobs)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.WarmHits != len(loadJobs) || st.WarmCyclesSaved != wantSaved {
		t.Fatalf("%d warm hits (%d cycles saved), want %d hits (%d cycles)",
			st.WarmHits, st.WarmCyclesSaved, len(loadJobs), wantSaved)
	}
	for i, res := range results {
		name := goldenName(loadJobs[i])
		if !res.WarmStart {
			t.Fatalf("%s ran cold", name)
		}
		res.ElapsedSeconds = 0
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		var gv, wv any
		if err := json.Unmarshal(got, &gv); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wv); err != nil {
			t.Fatal(err)
		}
		if diff, ok := jsonEq("result", wv, gv); !ok {
			t.Errorf("restored run drifted from the corpus at %s\ngot:  %s\nwant: %s", diff, got, want)
		}
	}
}

// TestGoldenTraceReplay pins the JSONL workload-trace path: a fixed
// bursty run records its injections to testdata/golden/workload.jsonl,
// and replaying that trace must reproduce the pinned delivery summary
// exactly. Regenerated with
// -update like the rest of the corpus.
func TestGoldenTraceReplay(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = 7
	tracePath := filepath.Join("testdata", "golden", "workload.jsonl")
	sumPath := filepath.Join("testdata", "golden", "workload_replay.json")

	if *update {
		n, err := sim.New(ff.Graph(), routing.NewUGALS(ff), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		entries := n.RecordTrace()
		src, err := traffic.NewOnOff(traffic.NewUniform(n.NumNodes()), 0.8, 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SetSource(src); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := n.Generate(0.25); err != nil {
				t.Fatal(err)
			}
			n.Step()
		}
		var buf bytes.Buffer
		if err := sim.WriteTraceJSONL(&buf, *entries); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	type summary struct {
		Injected  int64   `json:"injected"`
		Delivered int64   `json:"delivered"`
		Cycles    int64   `json:"cycles"`
		AvgLat    float64 `json:"avg_latency"`
	}
	replay := func() summary {
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		defer f.Close()
		n, err := sim.New(ff.Graph(), routing.NewUGALS(ff), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var s summary
		var latSum float64
		n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, cycle int64) {
			s.Delivered++
			latSum += float64(cycle - p.InjectCycle)
		}})
		s.Injected, err = n.ReplayTrace(sim.NewTraceScanner(f), 200000, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Cycles = n.Cycle()
		s.AvgLat = latSum / float64(s.Delivered)
		return s
	}

	got := replay()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(sumPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(sumPath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		var gv, wv any
		if err := json.Unmarshal(data, &gv); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wv); err != nil {
			t.Fatal(err)
		}
		if diff, ok := jsonEq("replay", wv, gv); !ok {
			t.Errorf("trace replay drifted from the corpus at %s\ngot:  %s\nwant: %s", diff, data, want)
		}
	}
}

// TestGoldenCorpus runs every corpus job under the sanitizer and holds
// the full result — job normalization, content hash, latency histogram
// percentiles, throughput, cycle counts — to the pinned files.
func TestGoldenCorpus(t *testing.T) {
	for _, job := range goldenJobs {
		name := goldenName(job)
		t.Run(name, func(t *testing.T) {
			checked := sweep.Engine{Workers: 1, Check: true}
			rs, err := checked.Run(context.Background(), []sweep.Job{job})
			if err != nil {
				t.Fatal(err)
			}
			res := rs[0]
			res.ElapsedSeconds = 0 // wall-clock is not part of the contract
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			var gv, wv any
			if err := json.Unmarshal(got, &gv); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want, &wv); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if diff, ok := jsonEq("result", wv, gv); !ok {
				t.Errorf("golden drift at %s\ngot:  %s\nwant: %s\n(intentional? regenerate with -update)",
					diff, got, want)
			}
		})
	}
}
