package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flatnet"
	"flatnet/internal/nocsvc"
	"flatnet/internal/spec"
	"flatnet/internal/sweep"
)

// opts returns a baseline runOpts the tests tweak per case.
func opts() runOpts {
	return runOpts{
		Flags:   spec.Flags{Topo: "ff", K: 8, N: 2, Dims: 6, Taper: 2, Alg: "clos"},
		pattern: "uniform",
		load:    0.2, warmup: 200, measure: 200, seed: 1, buf: 32,
		chunk: 1, traceCap: 1 << 14,
	}
}

func TestRunOpenLoop(t *testing.T) {
	for _, topo := range []string{"ff", "butterfly", "clos", "hypercube", "sf", "df"} {
		o := opts()
		o.Topo = topo
		if topo == "sf" || topo == "df" {
			o.Q, o.GH, o.Alg = 5, 2, "ugal"
		}
		if err := run(o); err != nil {
			t.Errorf("%s: %v", topo, err)
		}
		o.analytic = true
		if err := run(o); err != nil {
			t.Errorf("%s -analytic: %v", topo, err)
		}
	}
}

// TestRunAnalyticDragonflyBound runs -analytic on the balanced dragonfly
// with h=9, whose λ₂ now converges (in 57 Lanczos steps), so the report
// gives the bisection as a lower..upper range rather than "<= upper".
func TestRunAnalyticDragonflyBound(t *testing.T) {
	o := opts()
	o.Topo, o.GH, o.Alg = "df", 9, "ugal"
	o.analytic = true
	out := captureStdout(t, func() error { return run(o) })
	if !strings.Contains(out, "bisection: 7838..") || strings.Contains(out, "<=") {
		t.Errorf("dragonfly h=9 -analytic printed:\n%s\nwant the bisection as 7838..upper", out)
	}
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFrontEndsAgree pins the three front ends to one network: the
// sweep job, the nocd open request and the flatsim flags that each
// describe "the 64-terminal X" convert to equal spec.Net values — in
// particular the three historical folded-Clos taper formulas are one.
func TestFrontEndsAgree(t *testing.T) {
	cases := []struct {
		name string
		job  sweep.Job
		open *nocsvc.OpenParams // nil: not on the nocd wire
		mut  func(o *runOpts)
	}{
		{"flatfly", sweep.Job{Net: "flatfly", K: 8, N: 2, Alg: "CLOS AD"},
			&nocsvc.OpenParams{Topology: "flatfly", K: 8, N: 2, Routing: "CLOS AD"},
			func(o *runOpts) { o.Topo, o.Alg = "ff", "CLOS AD" }},
		{"butterfly", sweep.Job{Net: "butterfly", K: 8, N: 2},
			&nocsvc.OpenParams{Topology: "butterfly", K: 8, N: 2},
			func(o *runOpts) { o.Topo = "butterfly" }},
		{"2:1 folded Clos", sweep.Job{Net: "foldedclos", K: 8, Uplinks: 4, Leaves: 8, Middles: 2},
			&nocsvc.OpenParams{Topology: "foldedclos", K: 8, N: 2},
			func(o *runOpts) { o.Topo = "clos" }},
		{"hypercube", sweep.Job{Net: "hypercube", N: 6},
			&nocsvc.OpenParams{Topology: "hypercube", N: 6},
			func(o *runOpts) { o.Topo = "hypercube" }},
		{"slimfly", sweep.Job{Net: "slimfly", Q: 5, Alg: "ugal"}, nil,
			func(o *runOpts) { o.Topo, o.Q, o.Alg = "sf", 5, "ugal" }},
		{"dragonfly", sweep.Job{Net: "dragonfly", H: 2, Alg: "ugal-s"}, nil,
			func(o *runOpts) { o.Topo, o.GH, o.Alg = "df", 2, "ugal-s" }},
	}
	for _, c := range cases {
		want, _ := c.job.Spec()
		o := opts()
		c.mut(&o)
		if got, err := o.Net(); err != nil || got != want {
			t.Errorf("%s: flatsim flags give %+v (%v), the sweep job %+v", c.name, got, err, want)
		}
		if c.open != nil {
			if got, _, err := c.open.Spec(); err != nil || got != want {
				t.Errorf("%s: nocd open gives %+v (%v), the sweep job %+v", c.name, got, err, want)
			}
		}
		tp, err := want.Topology()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if n := tp.Graph().NumNodes; c.open != nil && n != 64 {
			t.Errorf("%s: %d terminals, want 64", c.name, n)
		}
	}
}

func TestParseHotList(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		bad  bool
	}{
		{"", nil, false},
		{"0", []int{0}, false},
		{"1, 3,7", []int{1, 3, 7}, false},
		{"5x", nil, true},
		{"1 2", nil, true},
		{"-1", nil, true},
		{"3,,4", nil, true},
		{",", nil, true},
		{"0x10", nil, true},
	}
	for _, c := range cases {
		got, err := parseHotList(c.in)
		if (err != nil) != c.bad || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseHotList(%q) = %v, %v; want %v, error %t", c.in, got, err, c.want, c.bad)
		}
	}
}

func TestRunSweepAndBatch(t *testing.T) {
	o := opts()
	o.K, o.Alg, o.pattern, o.load = 4, "ugal-s", "worstcase", 0
	o.sweep = true
	o.warmup, o.measure = 100, 100
	if err := run(o); err != nil {
		t.Errorf("sweep: %v", err)
	}
	o = opts()
	o.K, o.Alg, o.pattern, o.load = 4, "clos", "worstcase", 0
	o.batch = 4
	o.warmup, o.measure = 100, 100
	if err := run(o); err != nil {
		t.Errorf("batch: %v", err)
	}
}

func TestRunPatterns(t *testing.T) {
	for _, p := range []string{"uniform", "worstcase", "bitcomp", "tornado"} {
		o := opts()
		o.K, o.Alg, o.pattern, o.load = 4, "min", p, 0.1
		o.warmup, o.measure = 100, 100
		if err := run(o); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	o := opts()
	o.Topo = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown topology accepted")
	}
	o = opts()
	o.Alg = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown algorithm accepted")
	}
	o = opts()
	o.pattern = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown pattern accepted")
	}
	o = opts()
	o.Topo, o.Taper = "clos", 0
	if err := run(o); err == nil {
		t.Error("zero taper accepted")
	}

	// At most one run mode: every pair is rejected before anything runs.
	missing := filepath.Join(t.TempDir(), "missing")
	modes := []struct {
		flag string
		set  func(o *runOpts)
	}{
		{"-analytic", func(o *runOpts) { o.analytic = true }},
		{"-sweep", func(o *runOpts) { o.sweep = true }},
		{"-batch", func(o *runOpts) { o.batch = 4 }},
		{"-collective", func(o *runOpts) { o.collective = "alltoall" }},
		{"-window", func(o *runOpts) { o.window = 2 }},
		{"-trace-in", func(o *runOpts) { o.traceIn = missing + ".jsonl" }},
		{"-checkpoint", func(o *runOpts) { o.checkpoint = missing + ".snap" }},
		{"-restore", func(o *runOpts) { o.restore = missing + ".snap" }},
	}
	for i, a := range modes {
		for _, b := range modes[i+1:] {
			o := opts()
			a.set(&o)
			b.set(&o)
			if err := run(o); err == nil || !strings.Contains(err.Error(), a.flag+" and "+b.flag+" are two run modes") {
				t.Errorf("%s with %s: got %v, want the two-modes error", a.flag, b.flag, err)
			}
		}
	}
	// An observer a mode cannot host: -analytic simulates no network,
	// -sweep many, so neither fills a one-network file.
	for _, c := range []struct {
		name string
		set  func(o *runOpts)
	}{
		{"-analytic -check", func(o *runOpts) { o.analytic, o.check = true, true }},
		{"-analytic -flittrace", func(o *runOpts) { o.analytic, o.flitTrace = true, missing+".json" }},
		{"-analytic -trace-out", func(o *runOpts) { o.analytic, o.traceOut = true, missing+".jsonl" }},
		{"-sweep -flittrace", func(o *runOpts) { o.sweep, o.flitTrace = true, missing+".json" }},
		{"-sweep -trace-out", func(o *runOpts) { o.sweep, o.traceOut = true, missing+".jsonl" }},
	} {
		o := opts()
		c.set(&o)
		if err := run(o); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestRunRejectsBadCounts holds flatsim to an error for a count no run
// can use, where it would otherwise run another mode (a negative -batch
// or -window is an open-loop point) or clamp the value (-chunk to 1,
// -tracecap to one retained event).
func TestRunRejectsBadCounts(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.json")
	for _, c := range []struct {
		flag string
		set  func(o *runOpts)
	}{
		{"-batch", func(o *runOpts) { o.batch = -5 }},
		{"-window", func(o *runOpts) { o.window = -2 }},
		{"-chunk", func(o *runOpts) { o.collective, o.chunk = "alltoall", -3 }},
		{"-tracecap", func(o *runOpts) { o.flitTrace, o.traceCap = trace, 0 }},
	} {
		o := opts()
		o.K = 4
		c.set(&o)
		if err := run(o); err == nil || !strings.HasPrefix(err.Error(), c.flag+" must be") {
			t.Errorf("%s: got %v, want a range error", c.flag, err)
		}
	}
	// -tracecap sizes the flit tracer only; without -flittrace it is unused.
	o := opts()
	o.K, o.traceCap = 4, 0
	if err := run(o); err != nil {
		t.Errorf("-tracecap 0 without -flittrace: %v", err)
	}
}

// TestRunEveryModeObserved runs every simulation mode plain and with
// every observer flag it can host (-check, -flittrace, -trace-out; the
// probe report is always on): the observed run prints the same result,
// adding only the observers' own lines, and a checkpoint holds the same
// bytes.
func TestRunEveryModeObserved(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	base := func() runOpts {
		o := opts()
		o.K, o.warmup, o.measure = 4, 100, 100
		return o
	}
	seed := base()
	seed.checkpoint, seed.traceOut = path("seed.snap"), path("seed.jsonl")
	if err := run(seed); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		set  func(o *runOpts)
	}{
		{"load point", func(o *runOpts) {}},
		{"sweep", func(o *runOpts) { o.sweep = true }},
		{"batch", func(o *runOpts) { o.batch = 4 }},
		{"collective", func(o *runOpts) { o.collective, o.loadSet = "allreduce", true }},
		{"closed loop", func(o *runOpts) { o.window = 2 }},
		{"trace replay", func(o *runOpts) { o.traceIn = path("seed.jsonl") }},
		{"checkpoint", func(o *runOpts) { o.checkpoint = path("mode.snap") }},
		{"restore", func(o *runOpts) { o.restore = path("seed.snap") }},
	} {
		o := base()
		m.set(&o)
		plain := captureStdout(t, func() error { return run(o) })
		var snap []byte
		if o.checkpoint != "" {
			snap, _ = os.ReadFile(o.checkpoint)
		}
		o.check = true
		if !o.sweep {
			o.flitTrace, o.traceOut = path("flit.json"), path("out.jsonl")
		}
		var kept []string
		for _, line := range strings.SplitAfter(captureStdout(t, func() error { return run(o) }), "\n") {
			if !strings.HasPrefix(line, "flit trace: ") && !strings.HasPrefix(line, "workload trace: ") {
				kept = append(kept, line)
			}
		}
		if observed := strings.Join(kept, ""); observed != plain {
			t.Errorf("%s: observers changed the output:\nplain:\n%s\nobserved:\n%s", m.name, plain, observed)
		}
		if o.checkpoint != "" {
			if got, err := os.ReadFile(o.checkpoint); err != nil || len(snap) == 0 || !bytes.Equal(got, snap) {
				t.Errorf("%s: the observed run's checkpoint differs from the plain run's (%v)", m.name, err)
			}
		}
	}
}

func TestRunCheckpointRestore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "warm.snap")
	o := opts()
	o.K, o.warmup, o.measure = 4, 100, 100
	o.checkpoint = snap
	if err := run(o); err != nil {
		t.Fatalf("checkpoint run: %v", err)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint file: %v (size %v)", err, fi)
	}
	o = opts()
	o.K, o.warmup, o.measure = 4, 100, 100
	o.restore = snap
	if err := run(o); err != nil {
		t.Fatalf("restore run: %v", err)
	}
	// Restoring with mismatched build flags must fail, not misreport.
	o.seed = 99
	if err := run(o); err == nil {
		t.Fatal("restore with a mismatched seed accepted")
	}

	o = opts()
	o.checkpoint, o.sweep = snap, true
	if err := run(o); err == nil {
		t.Fatal("-checkpoint with -sweep accepted")
	}
	// The sanitizer starts from the restored network.
	o = opts()
	o.K, o.warmup, o.measure = 4, 100, 100
	o.restore, o.check = snap, true
	if err := run(o); err != nil {
		t.Fatalf("restore under -check: %v", err)
	}
	// A snapshot of an older format version is declined by name.
	o = opts()
	o.Alg, o.seed, o.warmup = "ugal", 24, 300
	o.restore = filepath.Join("..", "..", "internal", "sweep", "testdata", "parkeyed_ff_k8.snap")
	if err := run(o); err == nil || !strings.Contains(err.Error(), "format version 2") {
		t.Fatalf("restore of a version-2 snapshot: %v, want an error naming format version 2", err)
	}
}

func TestRunTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	hand := `{"cycle":0,"src":0,"dst":15}` + "\n" + `{"cycle":1,"src":3,"dst":8,"size":2}` + "\n"
	if err := os.WriteFile(path, []byte(hand), 0o644); err != nil {
		t.Fatal(err)
	}
	o := opts()
	o.K = 4
	o.traceIn = path
	if err := run(o); err != nil {
		t.Errorf("hand-written trace replay: %v", err)
	}
	if err := os.WriteFile(path, []byte(hand+`{"cycle":0,"src":99,"dst":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(o); err == nil {
		t.Error("trace with an out-of-range source and a decreasing cycle accepted")
	}
}

func TestRunWorkloads(t *testing.T) {
	// Every registry name (and the sweep aliases) is accepted.
	for _, p := range []string{"hotspot", "incast", "shuffle", "transpose", "randperm", "HS", "UR"} {
		o := opts()
		o.K, o.Alg, o.pattern, o.load = 4, "min", p, 0.1
		o.warmup, o.measure = 100, 100
		if err := run(o); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	o := opts()
	o.K, o.Alg, o.pattern, o.load = 4, "min", "hotspot", 0.1
	o.hot, o.hotfrac = "1,3", 0.3
	o.warmup, o.measure = 100, 100
	if err := run(o); err != nil {
		t.Errorf("parameterized hotspot: %v", err)
	}
	for _, bad := range []string{"1,x", "5x", "1 2"} {
		o.hot = bad
		if err := run(o); err == nil {
			t.Errorf("malformed -hot %q accepted", bad)
		}
	}
	o = opts()
	o.K, o.load = 4, 0.2
	o.burstPeak, o.burstLen = 0.8, 12
	o.warmup, o.measure = 100, 100
	if err := run(o); err != nil {
		t.Errorf("bursty point: %v", err)
	}
	o.load = 0.9 // exceeds the on/off peak rate
	if err := run(o); err == nil {
		t.Error("load above -burst-peak accepted")
	}
	if err := run(runOpts{pattern: "help"}); err != nil {
		t.Errorf("-pattern help: %v", err)
	}
}

func TestRunCollectives(t *testing.T) {
	o := opts()
	o.K, o.Alg = 4, "min"
	o.collective, o.chunk = "alltoall", 2
	if err := run(o); err != nil {
		t.Errorf("quiet alltoall: %v", err)
	}
	o = opts()
	o.K, o.Alg = 4, "min"
	o.collective = "allreduce"
	o.load, o.loadSet = 0.2, true
	o.warmup = 100
	o.check = true
	if err := run(o); err != nil {
		t.Errorf("loaded allreduce: %v", err)
	}
	o.collective = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown collective accepted")
	}
}

func TestRunWorkloadTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wl.jsonl")
	// The incast row's source backlogs delay materialization, so its
	// recording is out of cycle order until -trace-out sorts it.
	for _, c := range []struct {
		k       int
		pattern string
		load    float64
	}{{4, "uniform", 0.2}, {8, "incast", 0.3}} {
		o := opts()
		o.K, o.pattern, o.load = c.k, c.pattern, c.load
		o.warmup, o.measure = 100, 100
		o.traceOut = path
		if err := run(o); err != nil {
			t.Fatalf("%s: record: %v", c.pattern, err)
		}
		o = opts()
		o.K, o.pattern = c.k, c.pattern
		o.traceIn = path
		if err := run(o); err != nil {
			t.Fatalf("%s: replay: %v", c.pattern, err)
		}
	}
	o := opts()
	o.K = 4
	o.traceIn = filepath.Join(dir, "missing.jsonl")
	if err := run(o); err == nil {
		t.Error("missing -trace-in accepted")
	}
	o.traceIn, o.sweep = path, true
	if err := run(o); err == nil {
		t.Error("-trace-in with -sweep accepted")
	}
}

func TestRunClosedLoop(t *testing.T) {
	o := opts()
	o.K, o.load = 4, 0
	o.window = 2
	o.warmup, o.measure = 200, 400
	if err := run(o); err != nil {
		t.Errorf("closed loop: %v", err)
	}
}

// TestRunFlitTrace exercises the -flittrace path in both formats and
// checks the Chrome export round-trips.
func TestRunFlitTrace(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.json", "t.jsonl"} {
		path := filepath.Join(dir, name)
		o := opts()
		o.K, o.load = 4, 0.1
		o.warmup, o.measure = 100, 100
		o.flitTrace = path
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []flatnet.FlitEvent
		if filepath.Ext(path) == ".jsonl" {
			events, err = flatnet.ReadTraceJSONL(f)
		} else {
			events, err = flatnet.ReadChromeTrace(f)
		}
		f.Close()
		if err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		if len(events) == 0 {
			t.Errorf("%s: empty flit trace", name)
		}
	}
}

// TestRunListen checks the metrics endpoint wiring does not break a run
// (the endpoint itself is covered in internal/telemetry).
func TestRunListen(t *testing.T) {
	o := opts()
	o.K = 4
	o.warmup, o.measure = 100, 100
	o.listen = "127.0.0.1:0"
	if err := run(o); err != nil {
		t.Errorf("listen: %v", err)
	}
	// A second run must tolerate the expvar name already being published.
	if err := run(o); err != nil {
		t.Errorf("listen (second run): %v", err)
	}
}
