package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := summarize(xs, 0.75)
	if s.Value != 4 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.Min != 1 || s.Max != 5 || s.N != 5 {
		t.Fatalf("summarize(1..5) = %+v", s)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Fatal("summarize reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Fatalf("median of an even count = %v, want 2.5", got)
	}
	if got := quantile([]float64{0, 10}, 0.99); !near(got, 9.9) {
		t.Fatalf("quantile interpolates: got %v, want 9.9", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile of nothing = %v", got)
	}
}

func TestWindowMetrics(t *testing.T) {
	ws := []window{
		{wall: 1, work: 100, ops: []float64{1, 1, 1, 2}},
		{wall: 2, work: 100, ops: []float64{1, 1, 1, 50}}, // one preempted window
		{wall: 1, work: 110, ops: []float64{1, 1, 1, 3}},
		{wall: 0, work: 7}, // an empty slice of time reports no rate and no tail
	}
	if got := rates(ws); !reflect.DeepEqual(got, []float64{100, 50, 110}) {
		t.Fatalf("rates = %v", got)
	}
	tails := opQuantiles(ws, 0.99)
	if len(tails) != 3 || !near(tails[0], 1.97) || !near(tails[1], 48.53) || !near(tails[2], 2.94) {
		t.Fatalf("per-window p99 = %v, want [1.97 48.53 2.94]", tails)
	}
	// The reported figure is the quiet decile: the preempted window cannot
	// move it, and it sits below the single best window.
	if got := summarize(tails, quietTime); !near(got.Value, 1.97+0.2*(2.94-1.97)) || !near(got.Median, 2.94) || got.N != 3 {
		t.Fatalf("windowed p99 = %+v", got)
	}
	if got := summarize(rates(ws), quietRate); !near(got.Value, 108) || got.Median != 100 || got.Max != 110 {
		t.Fatalf("rate = %+v, want 108 between the median 100 and the best 110", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 3, StartNS: 50, EndNS: 60},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 30, 3: 40, 4: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("self times sum to %d, want the root's 100", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("t")
	root := tr.begin(0, "root")
	start := time.Now()
	child := tr.timed(root, "child", func() { time.Sleep(time.Millisecond) })
	tr.add(root, "assembled", start, 5*time.Microsecond, map[string]float64{"n": 1})
	tr.end(root)
	if child < time.Millisecond {
		t.Fatalf("timed returned %v", child)
	}
	for id, self := range selfTimes(tr.spans) {
		if self < 0 {
			t.Fatalf("span %d has negative self time %d: children exceed the parent", id, self)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin(0, "x"); id != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
	nilTracer.end(0)
}

func TestSamplerScaling(t *testing.T) {
	var s sampler
	timed := 0
	for i := 0; i < 10*sampleStride; i++ {
		if s.sample() {
			timed++
			s.record(timerOverhead + 100*time.Nanosecond)
		}
	}
	if timed != 10 || s.samples != 10 || s.calls != 10*sampleStride {
		t.Fatalf("timed %d of %d calls, want every %dth", timed, s.calls, sampleStride)
	}
	if got := s.nsPerCall(); got != 100 {
		t.Fatalf("nsPerCall = %v, want 100 after subtracting the clock's cost", got)
	}
	if got, want := s.totalNS(), 100.0*10*sampleStride; got != want {
		t.Fatalf("totalNS = %v, want %v: the sample mean scaled to all calls", got, want)
	}
	s.record(0) // cheaper than the clock itself: clamps, never negative
	if s.ns != 1000 {
		t.Fatalf("a sample below the clock's cost added %d ns", s.ns-1000)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening("higher", 100, 90); !near(got, 0.1) {
		t.Fatalf("a rate falling 100→90 worsens by %v, want 0.1", got)
	}
	if got := worsening("lower", 100, 90); !near(got, -0.1) {
		t.Fatalf("a time falling 100→90 worsens by %v, want -0.1", got)
	}
	set := func(rate float64, digest string) suiteReport {
		return suiteReport{Workloads: []workloadReport{{Workload: "w", Digest: digest,
			EndToEnd: []metricReport{{Name: "work_per_s", Better: "higher", Bound: 0.10, Value: rate}}}}}
	}
	if bad := agreement([]suiteReport{set(100, "d"), set(95, "d")}); len(bad) != 0 {
		t.Fatalf("5%% apart within a 10%% bound, got %v", bad)
	}
	if bad := agreement([]suiteReport{set(100, "d"), set(85, "d")}); len(bad) != 1 || bad[0].Metric != "work_per_s" {
		t.Fatalf("15%% apart must disagree, got %v", bad)
	}
	if bad := agreement([]suiteReport{set(100, "d"), set(100, "e")}); len(bad) != 1 || bad[0].Metric != "sim_digest" {
		t.Fatalf("different digests must disagree, got %v", bad)
	}
}

// TestBenchmarkJSON holds the metric and workload tables in this package
// equal to ../BENCHMARK.json, which is what the pipeline reads.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, want %q with the same why", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, want %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound mismatch", kind, m.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)

	// What a per-layer metric should move must be a metric and a workload
	// that exist.
	bounded := map[string]bool{}
	for _, m := range endToEnd {
		bounded[m.Name] = true
	}
	for _, m := range perLayer {
		if m.Moves == (moves{}) {
			continue
		}
		if !bounded[m.Moves.metric] || findWorkload(m.Moves.workload) == nil {
			t.Errorf("%s should move %q on %q, which BENCHMARK.json does not have", m.Name, m.Moves.metric, m.Moves.workload)
		}
	}
}

func testEnv(t *testing.T, traced bool) *runEnv {
	e := &runEnv{seed: 3, seconds: 0.05, scale: 0.02, tmp: t.TempDir(), nproc: 2}
	if traced {
		e.tr = newTracer("test")
	}
	return e
}

// TestDecoratorsDoNotPerturb runs core_ur with and without the sampling
// decorators: the simulated counters must not notice them.
func TestDecoratorsDoNotPerturb(t *testing.T) {
	w := findWorkload("core_ur")
	plain, err := w.run(testEnv(t, false))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := w.run(testEnv(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest == "" || plain.digest != traced.digest {
		t.Fatalf("sim_digest %q undecorated, %q decorated", plain.digest, traced.digest)
	}
	if traced.layer["routing.route_calls_per_cycle"] <= 0 || traced.layer["traffic.dest_calls_per_cycle"] <= 0 {
		t.Fatalf("decorators saw no calls: %v", traced.layer)
	}
}

// TestSmoke runs every workload, untraced and traced, at a fiftieth of
// its cycle, round and sample counts: every metric must come out, no operation may fail, children
// may not outlast their parent span, and a seed must repeat its digest.
func TestSmoke(t *testing.T) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var digests [2]string
			for i, traced := range []bool{false, true} {
				e := testEnv(t, traced)
				o, err := w.run(e)
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 || o.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, o.failed, o.attempted, o.failures)
				}
				if len(o.setups) == 0 || len(o.windows) == 0 || len(opQuantiles(o.windows, 0.5)) == 0 {
					t.Fatalf("traced=%v: %d set-ups, %d windows", traced, len(o.setups), len(o.windows))
				}
				if r := summarize(rates(o.windows), quietRate).Value; !(r > 0) || math.IsInf(r, 0) {
					t.Fatalf("traced=%v: window rate %v", traced, r)
				}
				digests[i] = o.digest
				if !traced {
					continue
				}
				if len(o.layer) == 0 {
					t.Fatal("traced run reported no per-layer metric")
				}
				for name, v := range o.layer {
					if !known[name] {
						t.Errorf("per-layer metric %q is not in the table", name)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", name, v)
					}
				}
				for id, self := range selfTimes(e.tr.spans) {
					if self < 0 {
						t.Errorf("span %d (%s): children cover %d ns more than the span", id, e.tr.spans[id-1].Name, -self)
					}
				}
				path, err := e.tr.write(e.tmp)
				if err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				var back []span
				if err == nil {
					err = json.Unmarshal(data, &back)
				}
				if err != nil || len(back) != len(e.tr.spans) {
					t.Fatalf("trace file round trip: %d of %d spans, %v", len(back), len(e.tr.spans), err)
				}
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Fatalf("sim_digest %q untraced, %q traced", digests[0], digests[1])
			}
		})
	}
}
