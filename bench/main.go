// Command flatbench is the repository's performance benchmark: seven
// workloads over the cycle core, the sweep engine, the nocd service and the
// analytic mode, each measured end to end and — in a traced run — layer by
// layer, from outside, through public functions only.
//
//	flatbench -workload core_ur -seed 1 -seconds 14 -trace 0  one workload, one JSON result line
//	flatbench -seed 1                                          every workload, each in a child process
//	flatbench -seed 1 -trace 1                                 … plus a traced run of each
//	flatbench -seed 1 -repeat 2                                the untraced set twice; the two sets must agree
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// procStart is read as early as the runtime allows: set-up time counts
// from process start.
var procStart = time.Now()

var workloads = []workload{
	{
		name: "core_ur",
		why:  "32-ary 2-flat, MIN AD, uniform load 0.8: pipeline-bound, Route is a table lookup, so the sim core's event drain and switch allocation dominate",
		work: "simulated cycles (workers=1)", op: "one simulated cycle",
		run: func(e *runEnv) (*outcome, error) {
			return runCore(e, coreSpec{k: 32, alg: "MIN AD", load: 0.8, warmup: 1000, block: 250}, true)
		},
	},
	{
		name: "core_wc",
		why:  "same network, CLOS AD, worst-case pattern at load 0.4: routing-bound and congested, the sequential allocator and non-minimal paths dominate",
		work: "simulated cycles (workers=1)", op: "one simulated cycle",
		run: func(e *runEnv) (*outcome, error) {
			return runCore(e, coreSpec{k: 32, alg: "CLOS AD", worstCase: true, load: 0.4, warmup: 1000, block: 250}, false)
		},
	},
	{
		name: "core_4k_par",
		why:  "64-ary 2-flat (4096 terminals) restored twice from one snapshot, stepped with 1 and min(nproc,8) workers through the same cycles: working set leaves cache; only user of shards and barriers",
		work: "simulated cycles (workers=1)", op: "one simulated cycle",
		run: func(e *runEnv) (*outcome, error) {
			return runCorePar(e, coreSpec{k: 64, alg: "CLOS AD", load: 0.5, warmup: 600, block: 50})
		},
	},
	{
		name: "sweep_grid",
		why:  "100 small load-point jobs run cold through sweep.Engine, then re-served from the reopened cache: construction, hashing, cache I/O and worker scheduling show",
		work: "cold jobs", op: "one cold job",
		run: runSweepGrid,
	},
	{
		name: "sweep_warm",
		why:  "the same grid with a new measurement window each round: every job misses the cache and restores the warmed snapshot that set-up's cold run stored",
		work: "warm-restored jobs", op: "one warm-restored job",
		run: runSweepWarm,
	},
	{
		name: "nocd_rpc",
		why:  "nproc closed-loop clients send single estimates to an in-process nocd over TCP loopback at background load 0: JSON codec, session queue and connection writer share the round trip with ~36 cycles",
		work: "estimates", op: "one estimate round trip",
		run: runNocd,
	},
	{
		name: "analytic_points",
		why:  "constructor + graph analysis of ten design points up to the 122k-endpoint Slim Fly: no cycle simulation, topology construction and BFS do all the work",
		work: "design points", op: "one round of the ten points",
		run: runAnalytic,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a single-workload run's standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is what a single-workload run knows beyond the result line; the
// suite reads it from the line before.
type detail struct {
	Workload string             `json:"workload"`
	Traced   bool               `json:"traced"`
	Digest   string             `json:"sim_digest"`
	Samples  map[string]summary `json:"samples"`
	Extra    map[string]summary `json:"extra,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Trace    string             `json:"trace_file,omitempty"`
}

const detailPrefix = "#detail "

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	out      string
	outdir   string
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "run this workload in this process and end with one JSON result line (default: every workload, each in a child process)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 14, "host seconds each workload measures for")
	flag.IntVar(&opt.trace, "trace", 0, "1: record spans and report the per-layer metrics")
	flag.IntVar(&opt.repeat, "repeat", 0, "run the untraced set this many times and fail if two sets' figures for any end-to-end metric disagree by more than its bound")
	flag.StringVar(&opt.out, "out", "", "write the suite's results as JSON to this file")
	flag.StringVar(&opt.outdir, "outdir", "bench/out", "directory for traces, repeat.json and scratch files")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "flatbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "flatbench: warning: GOMAXPROCS %d exceeds the %d CPUs available; timings will include oversubscription\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	var err error
	switch {
	case opt.workload != "":
		err = runOne(opt)
	case opt.repeat > 0:
		err = runRepeat(opt)
	default:
		err = runSuite(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatbench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result line.
func runOne(opt options) error {
	w := findWorkload(opt.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(opt.outdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(opt.outdir, "tmp-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &runEnv{seed: opt.seed, seconds: opt.seconds, scale: 1, tmp: tmp, nproc: runtime.NumCPU()}
	if opt.trace != 0 {
		e.tr = newTracer(w.name)
	}
	startup := time.Since(procStart).Seconds()
	o, err := w.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}

	if e.traced() {
		// A layer's self time is its span minus its children, so children
		// may not cover more than their parent.
		for id, self := range selfTimes(e.tr.spans) {
			o.check(self >= 0, "span %d (%s): children cover %d ns more than the span", id, e.tr.spans[id-1].Name, -self)
		}
	}

	det := detail{Workload: w.name, Traced: e.traced(), Digest: o.digest, Failures: o.failures,
		Samples: map[string]summary{}, Extra: map[string]summary{}}
	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	if e.traced() {
		o.set("op.p99_ms", summarize(opQuantiles(o.windows, 0.99), quietTime).Value)
		for _, m := range perLayer {
			line.Metrics[m.Name] = value{o.layer[m.Name], m.Unit}
		}
		// The suite compares this with the untraced run's work_per_s.
		det.Extra["work_per_s"] = summarize(rates(o.windows), quietRate)
		if det.Trace, err = e.tr.write(opt.outdir); err != nil {
			return err
		}
	} else {
		setup := summarize(o.setups, middle)
		setup.Value += startup
		det.Samples["setup_s"] = setup
		det.Samples["work_per_s"] = summarize(rates(o.windows), quietRate)
		det.Samples["op_p50_ms"] = summarize(opQuantiles(o.windows, 0.50), quietTime)
		det.Samples["peak_rss_mb"] = summarize([]float64{peakRSSMB()}, middle)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = value{det.Samples[m.Name].Value, m.Unit}
		}
	}
	if len(o.twin) > 0 {
		seq, par := summarize(rates(o.windows), quietRate), summarize(rates(o.twin), quietRate)
		det.Extra["par_cycles_per_s.wN"] = par
		det.Extra["parallel_speedup"] = summary{Value: par.Value / seq.Value, N: par.N}
	}

	fmt.Printf("%s seed=%d seconds=%g trace=%d  work: %s  op: %s\n", w.name, opt.seed, opt.seconds, opt.trace, w.work, w.op)
	printMetrics(os.Stdout, line.Metrics, det)
	fmt.Printf("  sim_digest %s   attempted %d   failed %d\n", o.digest, o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	dj, err := json.Marshal(det)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", detailPrefix, dj)
	lj, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", lj)
	if o.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, o.failed, o.attempted)
	}
	return nil
}
