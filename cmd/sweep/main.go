// Command sweep runs a grid of independent simulation jobs — the cross
// product of routing algorithms, traffic patterns and offered loads on
// one network — through the internal/sweep orchestration engine, and
// emits tab-separated series in the same format as results/*.txt.
//
// Usage:
//
//	sweep [-net flatfly] [-k 16] [-n 2] \
//	      [-algs "MIN AD,VAL,UGAL,UGAL-S,CLOS AD"] [-patterns UR,WC] \
//	      [-loads 0.1,0.3,0.5,0.7,0.9] [-warmup 400] [-measure 400] \
//	      [-maxcycles 4000] [-seed 1] [-buf 32] [-sat] \
//	      [-workers N] [-cache file] [-timeout 0] [-out file]
//
// Every (algorithm, pattern, load) tuple is one job with a stable
// content hash; -cache names a JSON-lines file where results persist, so
// re-running a grid recomputes only the points whose spec changed.
// -workers sizes the pool (0 = GOMAXPROCS); results are bit-identical at
// any pool size. -sat appends a saturation-throughput measurement per
// series. Progress, ETA and per-worker throughput go to stderr.
//
// The network flags convert through spec.Flags, the vocabulary flatsim
// and the nocd wire share: -k and -n give the k-ary n-flat, the k-ary
// n-fly and the folded Clos of k^n terminals (-net foldedclos, the §3.3
// 2:1 taper); -n alone gives the hypercube's dimensions. Slim Fly and
// dragonfly networks take -net slimfly -q Q [-p P] and -net dragonfly
// -gh H [-ga A] [-p P].
//
// -analytic replaces the simulation grid with one graph-analytic
// evaluation of the network (algorithms, patterns and loads are
// ignored): diameter, average hops, path diversity, bisection bounds
// and the zero-load latency, in the same Result shape — and the same
// cache — the simulated jobs use.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flatnet/internal/sim"
	"flatnet/internal/spec"
	"flatnet/internal/sweep"
	"flatnet/internal/telemetry"
	"flatnet/internal/traffic"
)

// cliConfig carries the parsed grid spec.
type cliConfig struct {
	net        string
	k, n       int
	q          int
	ga, gh     int
	conc       int
	analytic   bool
	algs       []string
	patterns   []string
	loads      []float64
	warmup     int
	measure    int
	maxCycles  int
	seed       uint64
	buf        int
	sat        bool
	workers    int
	cachePath  string
	jobTimeout time.Duration
	listen     string
	check      bool
}

func main() {
	var (
		cfg      cliConfig
		algs     = flag.String("algs", "MIN AD,VAL,UGAL,UGAL-S,CLOS AD", "comma-separated routing algorithms")
		patterns = flag.String("patterns", "UR,WC", "comma-separated traffic patterns ("+patternList()+")")
		loads    = flag.String("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.95,0.98", "comma-separated offered loads, ascending")
		seed     = flag.Uint64("seed", 1, "simulation seed (every job derives its RNG from this)")
		outPath  = flag.String("out", "", "output file ('' = stdout)")
	)
	flag.StringVar(&cfg.net, "net", "flatfly", "network constructor: flatfly, butterfly, foldedclos, hypercube, slimfly, dragonfly")
	flag.IntVar(&cfg.k, "k", 16, "network ary k (flatfly, butterfly, foldedclos)")
	flag.IntVar(&cfg.n, "n", 2, "network dimension count n (flatfly, butterfly, foldedclos: k^n terminals; hypercube: dimensions)")
	flag.IntVar(&cfg.q, "q", 0, "slimfly: MMS field size (odd prime power)")
	flag.IntVar(&cfg.gh, "gh", 0, "dragonfly: global channels per router h")
	flag.IntVar(&cfg.ga, "ga", 0, "dragonfly: routers per group a (0 = balanced 2h)")
	flag.IntVar(&cfg.conc, "p", 0, "slimfly/dragonfly: terminals per router (0 = balanced default)")
	flag.BoolVar(&cfg.analytic, "analytic", false, "evaluate the network graph-analytically instead of running the simulation grid")
	flag.IntVar(&cfg.warmup, "warmup", 400, "warmup window in cycles")
	flag.IntVar(&cfg.measure, "measure", 400, "measurement window in cycles")
	flag.IntVar(&cfg.maxCycles, "maxcycles", 4000, "per-job cycle budget (0 = simulator default)")
	flag.IntVar(&cfg.buf, "buf", 32, "flit buffering per input port")
	flag.BoolVar(&cfg.sat, "sat", true, "measure saturation throughput per series")
	flag.IntVar(&cfg.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.cachePath, "cache", "", "JSON-lines result cache file ('' disables caching; also enables the warm-snapshot store beside it)")
	flag.DurationVar(&cfg.jobTimeout, "timeout", 0, "per-job wall-clock budget (0 = none)")
	flag.StringVar(&cfg.listen, "listen", "", "serve live metrics (/debug/vars, /debug/pprof) on this address during the run")
	flag.BoolVar(&cfg.check, "check", false, "run every job under the runtime invariant sanitizer (violations fail the job; cache hits are served unchecked)")
	flag.Parse()

	cfg.algs = splitList(*algs)
	cfg.patterns = splitList(*patterns)
	cfg.seed = *seed
	var err error
	if cfg.loads, err = parseLoads(*loads); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	// First SIGINT/SIGTERM cancels the grid — in-flight jobs stop at
	// their next poll and the JSONL result cache flushes what completed;
	// a second signal forces immediate exit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "sweep: interrupted, flushing cache (signal again to force)")
		cancel()
		<-sigs
		fmt.Fprintln(os.Stderr, "sweep: forced exit")
		os.Exit(130)
	}()

	if err := run(ctx, cfg, out, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// telemetryReg is process-global: the expvar namespace is write-once,
// so every run in the process shares one registry.
var telemetryReg = telemetry.NewRegistry()

// run converts the network flags through spec.Flags, then executes the
// grid and writes one series block per pattern (or, with -analytic,
// evaluates the network).
func run(ctx context.Context, cfg cliConfig, out, progress io.Writer) error {
	net, err := spec.Flags{
		Topo: cfg.net, K: cfg.k, N: cfg.n, Dims: cfg.n, Taper: 2,
		Q: cfg.q, GH: cfg.gh, GA: cfg.ga, P: cfg.conc,
	}.Net()
	if err != nil {
		return err
	}
	if cfg.analytic {
		return runAnalytic(ctx, cfg, net, out)
	}
	if len(cfg.algs) == 0 || len(cfg.patterns) == 0 || len(cfg.loads) == 0 {
		return fmt.Errorf("grid is empty: need at least one algorithm, pattern and load")
	}
	eng := &sweep.Engine{Workers: cfg.workers, Progress: progress, JobTimeout: cfg.jobTimeout, Check: cfg.check}
	closeCache, err := eng.UseCache(cfg.cachePath)
	if err != nil {
		return err
	}
	defer closeCache()
	if cfg.listen != "" {
		eng.PublishVars(telemetryReg)
		telemetryReg.Gauge("sim_live", func() any { return sim.Live.Snapshot() })
		if err := telemetryReg.Publish("flatnet"); err != nil {
			return err
		}
		srv, err := telemetry.Serve(cfg.listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(progress, "sweep: serving metrics on http://%s/debug/vars\n", srv.Addr())
	}

	// One series per (pattern, algorithm), all submitted as a single
	// batch so the whole grid shares the worker pool.
	var specs []sweep.SeriesSpec
	for _, pat := range cfg.patterns {
		for _, alg := range cfg.algs {
			net.Alg = alg
			base := sweep.FromSpec(net, spec.Workload{Pattern: pat})
			base.Warmup, base.Measure, base.MaxCycles = cfg.warmup, cfg.measure, cfg.maxCycles
			base.Seed, base.BufPerPort = cfg.seed, cfg.buf
			specs = append(specs, sweep.SeriesSpec{Base: base, Loads: cfg.loads, Saturation: cfg.sat})
		}
	}
	res, err := eng.RunSeries(ctx, specs)
	if err != nil {
		return err
	}

	for pi, pat := range cfg.patterns {
		if pi > 0 {
			fmt.Fprintln(out)
		}
		block := res[pi*len(cfg.algs) : (pi+1)*len(cfg.algs)]
		fmt.Fprintf(out, "# sweep: %s %s pattern %s seed %d\n", net.Family, describe(net), pat, cfg.seed)
		fmt.Fprint(out, "load")
		for _, alg := range cfg.algs {
			fmt.Fprintf(out, "\tlat_%s", sanitize(alg))
		}
		fmt.Fprintln(out)
		for li, l := range cfg.loads {
			fmt.Fprintf(out, "%.2f", l)
			for ai := range cfg.algs {
				p := block[ai].Points[li]
				if p.Saturated {
					fmt.Fprint(out, "\tsat")
				} else {
					fmt.Fprintf(out, "\t%.2f", p.AvgLatency)
				}
			}
			fmt.Fprintln(out)
		}
		if cfg.sat {
			fmt.Fprintln(out, "# saturation throughput (accepted fraction of capacity at full offered load)")
			for ai, alg := range cfg.algs {
				fmt.Fprintf(out, "# %s\t%.3f\n", alg, block[ai].SaturationThroughput)
			}
		}
	}

	st := eng.Stats()
	fmt.Fprintf(progress, "sweep: grid done: %d jobs — %d simulated, %d cache hits, %d skipped\n",
		st.Jobs, st.Simulated, st.CacheHits, st.Skipped)
	if eng.Warm != nil {
		fmt.Fprintf(progress, "sweep: %s\n", st.WarmLine())
	}
	return nil
}

// describe renders the parameters the network's family reads, with
// balanced defaults resolved the same way the jobs resolve them.
func describe(net spec.Net) string {
	j := sweep.FromSpec(net, spec.Workload{}).Normalize()
	switch j.Net {
	case "slimfly":
		return fmt.Sprintf("q=%d p=%d", j.Q, j.P)
	case "dragonfly":
		return fmt.Sprintf("h=%d a=%d p=%d", j.H, j.A, j.P)
	case "foldedclos":
		return fmt.Sprintf("k=%d uplinks=%d leaves=%d middles=%d", j.K, j.Uplinks, j.Leaves, j.Middles)
	case "hypercube":
		return fmt.Sprintf("n=%d", j.N)
	default:
		return fmt.Sprintf("k=%d n=%d", j.K, j.N)
	}
}

// patternList is the -patterns vocabulary: the short form of every
// internal/traffic registry pattern.
func patternList() string {
	var short []string
	for a := range traffic.Aliases() {
		short = append(short, a)
	}
	sort.Strings(short)
	return strings.Join(short, ",")
}

// runAnalytic evaluates the network as a single graph-analytic job —
// through the same engine, so -cache and -workers behave as usual.
func runAnalytic(ctx context.Context, cfg cliConfig, net spec.Net, out io.Writer) error {
	eng := &sweep.Engine{Workers: cfg.workers, JobTimeout: cfg.jobTimeout}
	closeCache, err := eng.UseCache(cfg.cachePath)
	if err != nil {
		return err
	}
	defer closeCache()
	job := sweep.FromSpec(net, spec.Workload{})
	job.Mode, job.Seed = sweep.ModeAnalytic, cfg.seed
	start := time.Now()
	res, err := eng.Run(ctx, []sweep.Job{job})
	if err != nil {
		return err
	}
	r := res[0]
	m := r.Analytic
	if m == nil {
		return fmt.Errorf("job %s returned no analytic metrics", r.Hash[:12])
	}
	fmt.Fprintf(out, "# analytic: %s (job %s, %v)\n", net.Family, r.Job.Hash()[:12], time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "nodes\t%d\n", m.Nodes)
	fmt.Fprintf(out, "routers\t%d\n", m.Routers)
	fmt.Fprintf(out, "channels\t%d\n", m.Channels)
	fmt.Fprintf(out, "diameter\t%d\n", m.Diameter)
	fmt.Fprintf(out, "avg_hops\t%.4f\n", m.AvgHops)
	fmt.Fprintf(out, "path_diversity\t%.3f\n", m.PathDiversity)
	fmt.Fprintf(out, "bisection_lower\t%.0f\n", m.BisectionLowerChannels)
	fmt.Fprintf(out, "bisection_upper\t%.0f\n", m.BisectionUpperChannels)
	fmt.Fprintf(out, "zero_load_latency\t%.2f\n", r.Point.AvgLatency)
	return nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseLoads parses the ascending offered-load list.
func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		l, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", part, err)
		}
		if l < 0 || l > 1 {
			return nil, fmt.Errorf("load %v out of [0,1]", l)
		}
		if len(out) > 0 && l <= out[len(out)-1] {
			return nil, fmt.Errorf("loads must be strictly ascending (%v after %v)", l, out[len(out)-1])
		}
		out = append(out, l)
	}
	return out, nil
}

// sanitize maps a series label to a header-safe column name, matching
// the results/*.txt convention.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '-' || r == '(' || r == ')' || r == ',' || r == '=':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
