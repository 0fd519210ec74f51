package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none. Moves names the end-to-end metric and workload a per-layer metric
// should move first (empty: nothing end to end today); README.md lists the
// others. BENCHMARK.json carries name, unit, better and bound, and a test
// holds them equal to these tables and Moves to names that exist.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  moves
}

type moves struct{ metric, workload string }

// endToEnd lists the metrics every workload reports from an untraced run.
// work_per_s and op_p50_ms are per workload: the unit of work and the
// operation are named in the workload table (README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var (
	workUR    = moves{"work_per_s", "core_ur"}
	workWC    = moves{"work_per_s", "core_wc"}
	work4K    = moves{"work_per_s", "core_4k_par"}
	setup4K   = moves{"setup_s", "core_4k_par"}
	workGrid  = moves{"work_per_s", "sweep_grid"}
	workWarm  = moves{"work_per_s", "sweep_warm"}
	setupWarm = moves{"setup_s", "sweep_warm"}
	workNocd  = moves{"work_per_s", "nocd_rpc"}
	opNocd    = moves{"op_p50_ms", "nocd_rpc"}
	setupNocd = moves{"setup_s", "nocd_rpc"}
	workAnaly = moves{"work_per_s", "analytic_points"}
)

// perLayer lists the metrics of a traced run, in layer order. A workload
// that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"topo.build_ms.flatfly", "ms", "lower", 0, workAnaly},
	{"topo.build_ms.slimfly", "ms", "lower", 0, workAnaly},
	{"topo.build_ms.dragonfly", "ms", "lower", 0, workAnaly},
	{"topo.build_ms.foldedclos", "ms", "lower", 0, workAnaly},
	{"routing.build_ms", "ms", "lower", 0, workGrid},
	{"routing.route_calls_per_cycle", "count", "lower", 0, workWC},
	{"routing.route_ns_per_call", "ns", "lower", 0, workWC},
	{"routing.route_share", "ratio", "lower", 0, workWC},
	{"traffic.arrivals_ns_per_node_cycle", "ns", "lower", 0, workUR},
	{"traffic.dest_ns_per_call", "ns", "lower", 0, workUR},
	{"traffic.dest_calls_per_cycle", "count", "lower", 0, workUR},
	{"sim.generate_us_per_cycle", "us", "lower", 0, workUR},
	{"sim.new_ms", "ms", "lower", 0, workGrid},
	{"sim.step_us_per_cycle", "us", "lower", 0, workUR},
	{"sim.flit_hops_per_cycle", "count", "lower", 0, workUR},
	{"sim.ns_per_flit_hop", "ns", "lower", 0, workUR},
	{"sim.step_self_share", "ratio", "lower", 0, workUR},
	{"sim.allocs_per_cycle", "count", "lower", 0, workUR},
	{"sim.backlog_end", "count", "lower", 0, workWC},
	{"sim.par_step_us_per_cycle.w1", "us", "lower", 0, work4K},
	{"sim.par_step_us_per_cycle.wN", "us", "lower", 0, moves{}},
	{"sim.parallel_speedup", "ratio", "higher", 0, moves{}},
	{"sim.parallel_efficiency", "ratio", "higher", 0, moves{}},
	{"sim.workers", "count", "higher", 0, moves{}},
	{"sim.snapshot_ms", "ms", "lower", 0, setup4K},
	{"sim.restore_ms", "ms", "lower", 0, workWarm},
	{"sim.snapshot_bytes", "count", "lower", 0, setupWarm},
	{"sim.snapshot_mb_per_s", "MB/s", "higher", 0, setup4K},
	{"sweep.hash_us_per_job", "us", "lower", 0, workGrid},
	{"sweep.cache_open_ms", "ms", "lower", 0, moves{}},
	{"sweep.cache_hit_us_per_job", "us", "lower", 0, moves{}},
	{"sweep.cache_put_us_per_result", "us", "lower", 0, workGrid},
	{"sweep.cache_bytes", "count", "lower", 0, moves{}},
	{"sweep.worker_busy_frac", "ratio", "higher", 0, workGrid},
	{"sweep.engine_overhead_ms", "ms", "lower", 0, workGrid},
	{"sweep.job_ms_p50", "ms", "lower", 0, workGrid},
	{"sweep.job_ms_p95", "ms", "lower", 0, workGrid},
	{"sweep.saturated_jobs", "count", "lower", 0, workGrid},
	{"sweep.warm_hits", "count", "higher", 0, workWarm},
	{"sweep.warm_puts", "count", "lower", 0, setupWarm},
	{"sweep.warm_cycles_saved", "count", "higher", 0, workWarm},
	{"sweep.warm_store_bytes", "count", "lower", 0, setupWarm},
	{"sweep.warm_job_ms_p50", "ms", "lower", 0, workWarm},
	{"analysis.analyze_ms.slimfly", "ms", "lower", 0, workAnaly},
	{"analysis.analyze_ms.dragonfly", "ms", "lower", 0, workAnaly},
	{"analysis.analyze_ms.flatfly", "ms", "lower", 0, workAnaly},
	{"analysis.analyze_ms.foldedclos", "ms", "lower", 0, workAnaly},
	{"analysis.generic_bfs_ms", "ms", "lower", 0, workAnaly},
	{"analysis.endpoints_per_s", "1/s", "higher", 0, workAnaly},
	{"nocsvc.decode_us_per_req", "us", "lower", 0, opNocd},
	{"nocsvc.encode_us_per_resp", "us", "lower", 0, opNocd},
	{"nocsvc.noop_rtt_us", "us", "lower", 0, opNocd},
	{"nocsvc.open_session_ms", "ms", "lower", 0, setupNocd},
	{"nocsvc.service_p50_us", "us", "lower", 0, opNocd},
	{"nocsvc.service_p99_us", "us", "lower", 0, opNocd},
	{"nocsvc.client_overhead_us", "us", "lower", 0, opNocd},
	{"nocsvc.sim_cycles_per_estimate", "count", "lower", 0, opNocd},
	{"nocsvc.session_cycles_per_s", "1/s", "higher", 0, workNocd},
	{"nocsvc.errors", "count", "lower", 0, workNocd},
	{"nocsvc.saturated", "count", "lower", 0, workNocd},
	{"check.step_overhead_ratio", "ratio", "lower", 0, moves{}},
	{"telemetry.probes_overhead_ratio", "ratio", "lower", 0, moves{}},
	{"op.p99_ms", "ms", "lower", 0, moves{}},
}

// summary condenses one metric's samples. Value is the figure reported;
// the median, quartiles and extremes say how the samples lay around it.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// A figure taken over a run's windows is their quiet decile: the rate that
// a tenth of the windows reach or exceed, the time that a tenth stay at or
// under. The reference box shares its cores with other tenants, who only
// ever add time, in bursts of tens of milliseconds that in some hours touch
// most windows of a run. Spread over ten runs of core_ur (interquartile
// range over median), three series on one afternoon: median window 0.03,
// 0.17, 0.32 — the last wider than any bound the pipeline allows; upper
// quartile 0.03, 0.13, 0.22; decile 0.04, 0.09 (not recorded in the third);
// best window 0.05, 0.06, 0.05. Windows 4 to 32 times longer and runs twice
// as long did not narrow the median. The decile is not an extreme: with
// hundreds of windows a tenth of the run has to be that fast, a cost that
// recurs in nine windows of ten moves it, and it does not grow with the
// number of windows as a maximum does. A cost rarer than that (a collection
// every few blocks) escapes it, as one in fewer than half the windows
// escapes a median; sim.allocs_per_cycle and peak_rss_mb are there for
// those. Set-up repeats are few and report their median.
const (
	quietRate = 0.9 // quantile reported for rates
	quietTime = 0.1 // quantile reported for times
	middle    = 0.5 // … for set-up repeats
)

// quantile returns the q-quantile of sorted xs with linear interpolation
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// summarize reports the q-quantile of xs.
func summarize(xs []float64, q float64) summary {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return summary{}
	}
	return summary{Value: quantile(s, q), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// window is one timed stretch of a workload: a block of cycles, a round
// of jobs or points, or a slice of wall clock for the RPC clients.
type window struct {
	wall float64   // host seconds
	work float64   // units of work completed in it
	ops  []float64 // host ms of each operation that completed in it
}

// rates returns each window's work per host second.
func rates(ws []window) []float64 {
	out := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.wall > 0 {
			out = append(out, w.work/w.wall)
		}
	}
	return out
}

// opQuantiles returns each window's q-quantile of operation time.
func opQuantiles(ws []window, q float64) []float64 {
	out := make([]float64, 0, len(ws))
	for _, w := range ws {
		if len(w.ops) > 0 {
			out = append(out, quantile(sortedCopy(w.ops), q))
		}
	}
	return out
}

// span is one traced interval. Counts carries the counters recorded at the
// same boundary (sampled per-call layers are aggregated here, not spans).
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	timerOverhead = calibrateTimer()
	return &tracer{workload: workload, t0: procStart}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartNS: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add records a closed span with explicit bounds relative to the tracer's
// origin, for intervals assembled from per-cycle timers.
func (t *tracer) add(parent int, name string, start time.Time, d time.Duration, counts map[string]float64) int {
	if t == nil {
		return 0
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name,
		StartNS: s, EndNS: s + d.Nanoseconds(), Counts: counts})
	return id
}

// selfTimes returns each span's duration minus the part its direct
// children cover, in ns, keyed by span id.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNS - s.StartNS
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// timed runs f inside a span and returns how long it took.
func (t *tracer) timed(parent int, name string, f func()) time.Duration {
	id := t.begin(parent, name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// timerOverhead is the host cost of one time.Now/time.Since pair, which
// the sampled decorators subtract from every sample they take. newTracer
// measures it, so untraced runs do not pay for the calibration.
var timerOverhead time.Duration

func calibrateTimer() time.Duration {
	const n = 20000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	_ = sink
	return time.Since(start) / n
}

// sampler times every stride-th call of a hot function and scales the
// sample up to an estimate over all calls.
type sampler struct {
	calls   int64
	samples int64
	ns      int64
}

const sampleStride = 64

// sample reports whether this call is to be timed.
func (s *sampler) sample() bool {
	s.calls++
	return s.calls%sampleStride == 0
}

func (s *sampler) record(d time.Duration) {
	d -= timerOverhead
	if d < 0 {
		d = 0
	}
	s.samples++
	s.ns += d.Nanoseconds()
}

// nsPerCall is the mean host time of one call, from the timed samples.
func (s *sampler) nsPerCall() float64 {
	if s.samples == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.samples)
}

// totalNS estimates the host time of all calls.
func (s *sampler) totalNS() float64 { return s.nsPerCall() * float64(s.calls) }

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// digest hashes simulated counters; two commits that simulate the same
// thing print the same digest.
type digest struct{ h []byte }

func (d *digest) add(vals ...any) {
	d.h = append(d.h, fmt.Sprintln(vals...)...)
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:8])
}

// outcome is what one workload run produced.
type outcome struct {
	setups  []float64 // host seconds of each set-up repeat
	windows []window
	// twin holds the windows of a second path run through the same work
	// in the same process (core_4k_par's sharded network; windows holds
	// its workers=1 twin).
	twin []window

	attempted int
	failed    int
	failures  []string
	digest    string
	layer     map[string]float64
}

// check counts one correctness check as an attempted operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// fail counts one failed operation that was already counted as attempted.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n failed operations under one message.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64) {
	if o.layer == nil {
		o.layer = make(map[string]float64)
	}
	o.layer[name] = v
}

// runEnv is what a workload is given.
type runEnv struct {
	seed    uint64
	seconds float64
	// scale multiplies cycle, round and sample counts. It is 1 in every
	// run; only the tests lower it, so that go test stays short.
	scale float64
	tr    *tracer // nil unless the run is traced
	tmp   string  // scratch directory inside the checkout
	nproc int
}

func (e *runEnv) traced() bool { return e.tr != nil }

// cycles scales a cycle, round or sample count, never below min.
func (e *runEnv) cycles(n, min int) int {
	v := int(math.Round(float64(n) * e.scale))
	if v < min {
		v = min
	}
	return v
}

// setupRepeats is how often a workload whose set-up takes well under a
// second repeats it; the median repeat is reported.
const setupRepeats = 5

// deadline returns when the timed part of the run ends.
func (e *runEnv) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

type workload struct {
	name string
	why  string
	// work and op name the unit behind work_per_s and the operation
	// behind op_p50_ms / op_p99_ms.
	work string
	op   string
	run  func(e *runEnv) (*outcome, error)
}
