package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"flatnet/internal/sim"
	"flatnet/internal/traffic"
)

// tinyJob is a fast (few-ms) flattened-butterfly load point used to keep
// the engine tests cheap.
func tinyJob(alg string, load float64) Job {
	return Job{
		Net: "flatfly", K: 4, N: 2,
		Alg: alg, Pattern: "UR",
		Load:   load,
		Warmup: 100, Measure: 100, MaxCycles: 2000,
		Seed: 7,
	}
}

func TestJobHashStability(t *testing.T) {
	j := tinyJob("CLOS AD", 0.5)
	if j.Hash() != j.Hash() {
		t.Fatal("hash not deterministic")
	}
	// Normalization: explicit defaults hash like implicit ones.
	k := j
	k.BufPerPort = 32
	k.PacketSize = 1
	k.Mode = ModeLoad
	k.Multiplicity = 1
	k.ChannelLatency = 1
	k.Conc = k.K
	if j.Hash() != k.Hash() {
		t.Error("normalized defaults changed the hash")
	}
	// Pattern aliases canonicalize.
	u := j
	u.Pattern = "uniform"
	if j.Hash() != u.Hash() {
		t.Error("pattern alias changed the hash")
	}
}

// TestJobHashInvalidation asserts that changing any job field — seed and
// scale included — changes the hash, which is what invalidates cache
// entries when a spec changes.
func TestJobHashInvalidation(t *testing.T) {
	base := tinyJob("CLOS AD", 0.5)
	mutations := map[string]func(*Job){
		"Net":            func(j *Job) { j.Net = "butterfly" },
		"K":              func(j *Job) { j.K = 8 },
		"N":              func(j *Job) { j.N = 3 },
		"Uplinks":        func(j *Job) { j.Uplinks = 2 },
		"Leaves":         func(j *Job) { j.Leaves = 4 },
		"Middles":        func(j *Job) { j.Middles = 2 },
		"Q":              func(j *Job) { j.Q = 5 },
		"A":              func(j *Job) { j.A = 4 },
		"H":              func(j *Job) { j.H = 2 },
		"P":              func(j *Job) { j.P = 3 },
		"ChannelLatency": func(j *Job) { j.ChannelLatency = 16 },
		"Multiplicity":   func(j *Job) { j.Multiplicity = 2 },
		"Alg":            func(j *Job) { j.Alg = "VAL" },
		"Pattern":        func(j *Job) { j.Pattern = "WC" },
		"Conc":           func(j *Job) { j.Conc = 2 },
		"Hot":            func(j *Job) { j.Hot = []int{1} },
		"HotFraction":    func(j *Job) { j.HotFraction = 0.2 },
		"BurstPeak":      func(j *Job) { j.BurstPeak = 0.9 },
		"BurstLen":       func(j *Job) { j.BurstLen = 24 },
		"Collective":     func(j *Job) { j.Collective = sim.CollectiveAllToAll },
		"Chunk":          func(j *Job) { j.Chunk = 3 },
		"Mode":           func(j *Job) { j.Mode = ModeSaturation },
		"Load":           func(j *Job) { j.Load = 0.51 },
		"Warmup":         func(j *Job) { j.Warmup = 101 },
		"Measure":        func(j *Job) { j.Measure = 101 },
		"MaxCycles":      func(j *Job) { j.MaxCycles = 2001 },
		"BatchSize":      func(j *Job) { j.BatchSize = 2 },
		"Seed":           func(j *Job) { j.Seed = 8 },
		"BufPerPort":     func(j *Job) { j.BufPerPort = 64 },
		"PacketSize":     func(j *Job) { j.PacketSize = 4 },
		"Speedup":        func(j *Job) { j.Speedup = 1 },
		"AgeArbiter":     func(j *Job) { j.AgeArbiter = true },
		"RouterDelay":    func(j *Job) { j.RouterDelay = 2 },
	}
	// Fields whose value must NOT change the hash: Workers is inert, and
	// caches written when it was not must keep serving.
	unhashed := map[string]func(*Job){
		"Workers": func(j *Job) { j.Workers = 8 },
	}
	seen := map[string]string{base.Hash(): "base"}
	for field, mutate := range mutations {
		j := base
		mutate(&j)
		h := j.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collided with %s", field, prev)
		}
		seen[h] = field
	}
	for field, mutate := range unhashed {
		j := base
		mutate(&j)
		if j.Hash() != base.Hash() {
			t.Errorf("mutating execution detail %s changed the hash; cached results would not be shared", field)
		}
	}
	// Every Job field must be covered above (hashed or explicitly
	// execution-detail), so adding a field without deciding its caching
	// behavior fails this test.
	if want := reflect.TypeOf(Job{}).NumField(); len(mutations)+len(unhashed) != want {
		t.Errorf("mutation tables cover %d fields, Job has %d — extend the tables and the canonical encoding", len(mutations)+len(unhashed), want)
	}
}

// TestWorkloadJobs exercises the registry-backed workload fields — a
// bursty on/off job, a parameterized hotspot job, and a ModeCollective
// job with bursty background traffic.
func TestWorkloadJobs(t *testing.T) {
	burst := tinyJob("MIN AD", 0.3)
	burst.BurstPeak, burst.BurstLen = 0.8, 12
	if res, err := burst.Run(nil); err != nil {
		t.Fatalf("bursty job: %v", err)
	} else if res.Point.MeasuredDelivered == 0 {
		t.Fatal("bursty job delivered nothing")
	}

	hot := tinyJob("MIN AD", 0.2)
	hot.Pattern, hot.Hot, hot.HotFraction = "hotspot", []int{3, 5}, 0.3
	res, err := hot.Run(nil)
	if err != nil {
		t.Fatalf("hotspot job: %v", err)
	}
	if res.Job.Pattern != "HS" {
		t.Fatalf("hotspot did not canonicalize to HS, got %q", res.Job.Pattern)
	}

	coll := tinyJob("MIN AD", 0.1)
	coll.Mode, coll.Collective, coll.Chunk = ModeCollective, sim.CollectiveAllToAll, 2
	coll.BurstPeak = 0.8
	seq, err := coll.RunChecked(nil)
	if err != nil {
		t.Fatalf("collective job: %v", err)
	}
	if seq.Collective == nil || seq.Collective.Phases != seq.Collective.Nodes-1 {
		t.Fatalf("collective result malformed: %+v", seq.Collective)
	}
	bad := tinyJob("MIN AD", 0.5)
	bad.Pattern = "no-such-pattern"
	var uerr *traffic.UnknownPatternError
	if _, err := bad.Run(nil); !errors.As(err, &uerr) {
		t.Fatalf("want UnknownPatternError, got %v", err)
	} else if len(uerr.Known) == 0 {
		t.Fatal("UnknownPatternError lists no known patterns")
	}
}

// TestParallelMatchesSequential is the heart of the engine's contract:
// the same jobs produce bit-identical results at any worker count.
func TestParallelMatchesSequential(t *testing.T) {
	var jobs []Job
	for _, alg := range []string{"MIN AD", "VAL", "CLOS AD"} {
		for _, load := range []float64{0.2, 0.5, 0.8} {
			jobs = append(jobs, tinyJob(alg, load))
		}
	}
	seq, err := (&Engine{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Engine{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		a, b := seq[i], par[i]
		a.ElapsedSeconds, b.ElapsedSeconds = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("job %d diverged:\nseq %+v\npar %+v", i, a, b)
		}
	}
}

// TestRunSeriesMatchesLoadSweep pins the parallel series path to the
// sequential sim.LoadSweep reference, early-exit semantics included: a
// saturating sweep must produce identical points either way.
func TestRunSeriesMatchesLoadSweep(t *testing.T) {
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	// MIN AD on WC saturates at ~1/k, and the tight cycle budget makes
	// the over-saturated points report Saturated, so this sweep
	// exercises the tail collapse.
	base := tinyJob("MIN AD", 0)
	base.Pattern = "WC"
	base.MaxCycles = 300

	norm := base.Normalize()
	net, wl := norm.Spec()
	tp, alg, conc, err := net.Build()
	if err != nil {
		t.Fatal(err)
	}
	pat, _, err := wl.Build(tp.Graph().NumNodes, conc, norm.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.LoadSweep(tp.Graph(), alg, norm.simConfig(), sim.RunConfig{
		Source: traffic.NewBernoulli(pat), Warmup: base.Warmup, Measure: base.Measure, MaxCycles: base.MaxCycles,
	}, loads)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 6} {
		eng := &Engine{Workers: workers}
		res, err := eng.RunSeries(context.Background(), []SeriesSpec{{Base: base, Loads: loads}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[0].Points, want) {
			t.Errorf("workers=%d: series diverged from sim.LoadSweep:\ngot  %+v\nwant %+v", workers, res[0].Points, want)
		}
	}
}

// TestRunSeriesSkipFastPath checks the saturation fast-path actually
// elides simulations when run sequentially (where completion order makes
// the skip deterministic).
func TestRunSeriesSkipFastPath(t *testing.T) {
	base := tinyJob("MIN AD", 0)
	base.Pattern = "WC" // saturates by ~0.25 offered load
	base.MaxCycles = 300
	loads := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	eng := &Engine{Workers: 1}
	if _, err := eng.RunSeries(context.Background(), []SeriesSpec{{Base: base, Loads: loads}}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Skipped == 0 {
		t.Errorf("expected the saturation fast-path to skip trailing points, stats: %+v", st)
	}
	if st.Simulated+st.Skipped != len(loads) {
		t.Errorf("simulated %d + skipped %d != %d points", st.Simulated, st.Skipped, len(loads))
	}
}

func TestRunDedupesIdenticalJobs(t *testing.T) {
	j := tinyJob("VAL", 0.4)
	eng := &Engine{Workers: 4}
	res, err := eng.Run(context.Background(), []Job{j, j, j})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Simulated != 1 || st.Deduped != 2 {
		t.Errorf("expected 1 simulation + 2 dedups, got %+v", st)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Point != res[0].Point {
			t.Errorf("deduped result %d differs from primary", i)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Large enough that an uncancelled run would be noticeable.
	j := Job{
		Net: "flatfly", K: 8, N: 2, Alg: "VAL", Pattern: "UR",
		Load: 0.5, Warmup: 5000, Measure: 5000, MaxCycles: 100000, Seed: 1,
	}
	start := time.Now()
	_, err := (&Engine{Workers: 2}).Run(ctx, []Job{j, j, j, j})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled run took %v", d)
	}
}

func TestJobTimeout(t *testing.T) {
	// A deliberately huge job with a tiny wall-clock budget must fail
	// with a budget error instead of running to completion.
	j := Job{
		Net: "flatfly", K: 8, N: 2, Alg: "VAL", Pattern: "UR",
		Load: 0.9, Warmup: 100000, Measure: 100000, MaxCycles: 10000000, Seed: 1,
	}
	eng := &Engine{Workers: 1, JobTimeout: 20 * time.Millisecond}
	_, err := eng.Run(context.Background(), []Job{j})
	if err == nil {
		t.Fatal("expected a wall-clock budget error")
	}
	if !errors.Is(err, sim.ErrStopped) || !strings.Contains(err.Error(), "budget") {
		t.Errorf("unexpected error: %v", err)
	}
	if st := eng.Stats(); st.Failed != 1 {
		t.Errorf("expected 1 failed job, got %+v", st)
	}
}

// TestRunCollectsAllFailures checks that one bad job fails without
// aborting its siblings.
func TestRunCollectsAllFailures(t *testing.T) {
	good := tinyJob("VAL", 0.3)
	bad := good
	bad.Alg = "nonsense"
	eng := &Engine{Workers: 2}
	res, err := eng.Run(context.Background(), []Job{bad, good})
	if err == nil {
		t.Fatal("expected an error for the bad job")
	}
	if res[1].Point.MeasuredDelivered == 0 {
		t.Error("good job did not run to completion alongside the failure")
	}
	if st := eng.Stats(); st.Simulated != 1 || st.Failed != 1 {
		t.Errorf("expected 1 simulated + 1 failed, got %+v", st)
	}
}

func TestWorkerStatsUtilization(t *testing.T) {
	var jobs []Job
	for _, load := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6} {
		jobs = append(jobs, tinyJob("CLOS AD", load))
	}
	eng := &Engine{Workers: 3}
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if len(st.Workers) != 3 {
		t.Fatalf("expected stats for 3 workers, got %d", len(st.Workers))
	}
	total := 0
	for _, w := range st.Workers {
		total += w.Jobs
	}
	if total != len(jobs) {
		t.Errorf("worker job counts sum to %d, want %d", total, len(jobs))
	}
}

// syncBuffer is a mutex-guarded bytes buffer for collecting progress
// output in tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestProgressOutput(t *testing.T) {
	var buf syncBuffer
	eng := &Engine{Workers: 2, Progress: &buf}
	if _, err := eng.Run(context.Background(), []Job{tinyJob("VAL", 0.2), tinyJob("VAL", 0.4)}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sweep: done:", "worker 0:", "worker 1:", "2 simulated"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}
