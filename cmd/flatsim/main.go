// Command flatsim runs one cycle-accurate simulation: a topology, a
// routing algorithm, a traffic pattern and an offered load (or a load
// sweep), printing latency and throughput.
//
// Examples:
//
//	flatsim -topo ff -k 32 -n 2 -alg clos -pattern worstcase -load 0.45
//	flatsim -topo ff -k 16 -n 2 -alg ugal -pattern uniform -sweep
//	flatsim -topo hypercube -dims 10 -pattern uniform -load 0.8
//	flatsim -topo clos -k 32 -taper 2 -pattern worstcase -load 0.4
//	flatsim -topo butterfly -k 32 -n 2 -pattern uniform -load 0.9
//	flatsim -topo ff -k 32 -n 2 -alg ugal-s -pattern worstcase -batch 16
//	flatsim -topo ff -k 32 -n 2 -alg clos -window 4            # request-reply
//	flatsim -topo ff -k 16 -n 2 -pattern uniform -burst-peak 0.9 -burst-len 24 -load 0.3
//	flatsim -topo ff -k 16 -n 2 -pattern hotspot -hot 0,5 -hotfrac 0.2 -load 0.3
//	flatsim -topo ff -k 8 -n 2 -alg ugal -collective allreduce -chunk 4
//	flatsim -topo ff -k 8 -n 2 -load 0.4 -trace-out wl.jsonl   # record a workload
//	flatsim -topo ff -k 8 -n 2 -trace-in wl.jsonl              # replay it
//	flatsim -pattern help                                      # list the registry
//	flatsim -topo ff -k 8 -n 2 -load 0.4 -flittrace run.json   # flit trace
//	flatsim -topo ff -k 8 -n 2 -load 0.4 -restore w.snap -check # sanitized from a checkpoint
//	flatsim -topo ff -k 16 -n 2 -sweep -listen localhost:6060  # live metrics
//	flatsim -topo sf -q 5 -alg ugal -pattern uniform -load 0.5 # Slim Fly
//	flatsim -topo df -gh 4 -alg min -pattern worstcase -load 0.1
//	flatsim -topo sf -q 43 -analytic                           # 122k nodes, no simulation
package main

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"flatnet"
	"flatnet/internal/sim"
	"flatnet/internal/spec"
)

func main() {
	var o runOpts
	flag.StringVar(&o.Topo, "topo", "ff", "topology: ff | butterfly | clos | hypercube | sf | df")
	flag.IntVar(&o.K, "k", 32, "ary (terminals per router for ff/clos groups)")
	flag.IntVar(&o.N, "n", 2, "stages (ff/butterfly: network has k^n nodes)")
	flag.IntVar(&o.Dims, "dims", 10, "hypercube dimensions")
	flag.IntVar(&o.Taper, "taper", 2, "folded-Clos taper (terminals/uplinks ratio)")
	flag.IntVar(&o.Q, "q", 5, "Slim Fly field size (odd prime power)")
	flag.IntVar(&o.GH, "gh", 2, "dragonfly global channels per router")
	flag.IntVar(&o.GA, "ga", 0, "dragonfly routers per group (0 = balanced 2h)")
	flag.IntVar(&o.P, "p", 0, "sf/df terminals per router (0 = balanced default)")
	flag.StringVar(&o.Alg, "alg", "clos", "ff algorithm: min | val | ugal | ugal-s | clos (sf/df: min | val | ugal | ugal-s)")
	flag.StringVar(&o.pattern, "pattern", "uniform", "traffic pattern from the registry ('help' lists every name and alias)")
	flag.StringVar(&o.hot, "hot", "", "comma-separated hot terminals for the hotspot pattern / incast sink (default 0)")
	flag.Float64Var(&o.hotfrac, "hotfrac", 0, "fraction of hotspot traffic directed at the hot set (0 = default 0.1)")
	flag.Float64Var(&o.burstPeak, "burst-peak", 0, "bursty on/off arrivals: peak injection rate while ON (0 = Bernoulli)")
	flag.Float64Var(&o.burstLen, "burst-len", 16, "mean burst length in cycles for -burst-peak")
	flag.Float64Var(&o.load, "load", 0.5, "offered load (fraction of capacity)")
	flag.BoolVar(&o.sweep, "sweep", false, "sweep loads 0.1..0.95 instead of one point")
	flag.IntVar(&o.batch, "batch", 0, "run a batch experiment of this size instead of open-loop")
	flag.StringVar(&o.collective, "collective", "", "run a collective schedule to completion: alltoall | allreduce (-load adds background traffic)")
	flag.IntVar(&o.chunk, "chunk", 1, "packets per transfer for -collective")
	flag.StringVar(&o.traceIn, "trace-in", "", "replay a JSONL workload trace (one {\"cycle\",\"src\",\"dst\",\"size\"} object per line), streamed with bounded memory")
	flag.StringVar(&o.traceOut, "trace-out", "", "record the run's injections to this JSONL workload trace")
	flag.IntVar(&o.window, "window", 0, "run a closed-loop request-reply workload with this many outstanding requests per node")
	flag.IntVar(&o.warmup, "warmup", 1000, "warm-up cycles")
	flag.IntVar(&o.measure, "measure", 1000, "measurement cycles")
	flag.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	flag.IntVar(&o.buf, "buf", 32, "flit buffers per port")
	flag.StringVar(&o.listen, "listen", "", "serve live metrics (/debug/vars, /debug/pprof) on this address during the run")
	flag.StringVar(&o.flitTrace, "flittrace", "", "write a flit event trace of the run to this file (.jsonl for JSON lines, anything else for Chrome trace JSON)")
	flag.IntVar(&o.traceCap, "tracecap", 1<<16, "flit tracer ring capacity in events (oldest evicted when full)")
	flag.BoolVar(&o.analytic, "analytic", false, "evaluate the topology graph-analytically (diameter, avg hops, path diversity, bisection bounds) instead of simulating")
	flag.BoolVar(&o.check, "check", false, "run under the runtime invariant sanitizer (every simulation mode)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "write a snapshot of the warmed network to this file when the measurement window opens (single -load runs)")
	flag.StringVar(&o.restore, "restore", "", "restore the network from a -checkpoint snapshot instead of warming up (single -load runs; pass the same topology/-seed/-buf/-warmup as the checkpointing run)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "load" {
			o.loadSet = true
		}
	})

	// First SIGINT/SIGTERM asks the run to stop at the next poll (the
	// runner returns an error wrapping sim.ErrStopped); a second signal
	// forces immediate exit.
	var interrupted atomic.Bool
	o.stop = interrupted.Load
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "flatsim: interrupted, stopping (signal again to force)")
		<-sigs
		fmt.Fprintln(os.Stderr, "flatsim: forced exit")
		os.Exit(130)
	}()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "flatsim:", err)
		os.Exit(1)
	}
}

// runOpts collects every flag; run is pure in it, which is what the
// tests drive.
type runOpts struct {
	spec.Flags // the topology and routing flags
	analytic   bool
	pattern    string
	hot        string
	hotfrac    float64
	burstPeak  float64
	burstLen   float64
	traceIn    string
	traceOut   string
	collective string
	chunk      int
	load       float64
	loadSet    bool
	sweep      bool
	batch      int
	window     int
	warmup     int
	measure    int
	seed       uint64
	buf        int
	listen     string
	flitTrace  string
	traceCap   int
	check      bool
	checkpoint string
	restore    string
	stop       func() bool // polled cancellation hook (nil = never stop)
}

// telemetryReg is process-global: the expvar namespace is write-once,
// so every run in the process shares one registry.
var telemetryReg = flatnet.NewTelemetryRegistry()

func run(o runOpts) error {
	if o.pattern == "help" || o.pattern == "list" {
		byName := map[string]string{}
		for a, name := range flatnet.PatternAliases() {
			byName[name] = a
		}
		fmt.Println("patterns (every name builds from the topology and seed alone):")
		for _, name := range flatnet.PatternNames() {
			if a, ok := byName[name]; ok {
				fmt.Printf("  %-10s (alias %s)\n", name, a)
			} else {
				fmt.Printf("  %s\n", name)
			}
		}
		return nil
	}
	if err := o.conflicts(); err != nil {
		return err
	}
	if o.listen != "" {
		telemetryReg.Gauge("sim_live", func() any { return sim.Live.Snapshot() })
		if err := telemetryReg.Publish("flatnet"); err != nil {
			return err
		}
		srv, err := flatnet.ServeTelemetry(o.listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "flatsim: serving metrics on http://%s/debug/vars\n", srv.Addr())
	}

	net, err := o.Net()
	if err != nil {
		return err
	}
	if o.analytic {
		return runAnalytic(net)
	}
	t, alg, conc, err := net.Build()
	if err != nil {
		return err
	}
	g := t.Graph()
	fmt.Printf("topology: %s (N=%d, routers=%d%s), routing: %s\n", t.Name(), g.NumNodes, g.NumRouters(), detail(t), alg.Name())

	hot, err := parseHotList(o.hot)
	if err != nil {
		return err
	}
	if o.burstPeak > 0 {
		if o.batch > 0 || o.window > 0 || o.traceIn != "" {
			return fmt.Errorf("-burst-peak applies to open-loop runs (-load, -sweep, -collective)")
		}
		if o.burstPeak > 1 {
			return fmt.Errorf("-burst-peak must be in (0, 1], got %g", o.burstPeak)
		}
	}
	p, src, err := spec.Workload{
		Pattern: o.pattern, Hot: hot, HotFraction: o.hotfrac,
		BurstPeak: o.burstPeak, BurstLen: o.burstLen,
	}.Build(g.NumNodes, conc, o.seed)
	var unknown *flatnet.UnknownPatternError
	if errors.As(err, &unknown) {
		return fmt.Errorf("%w (try -pattern help)", err)
	}
	if err != nil {
		return err
	}

	cfg := flatnet.Config{Seed: o.seed, BufPerPort: o.buf}
	obs := o.observers()
	switch {
	case o.traceIn != "":
		err = runTraceJSONL(g, alg, cfg, o, obs)
	case o.collective != "":
		err = runCollective(g, alg, cfg, src, o, obs)
	case o.window > 0:
		var res flatnet.ClosedLoopResult
		res, err = flatnet.RunClosedLoop(g, alg, cfg, flatnet.ClosedLoopConfig{
			Window: o.window, Pattern: p, Warmup: o.warmup, Measure: o.measure,
			RunHooks: obs.hooks,
		})
		if err = cmp.Or(err, obs.checked()); err == nil {
			fmt.Printf("closed loop, window %d: avg round trip %.2f cycles (p99 %d), %.4f requests/node/cycle\n",
				o.window, res.AvgRoundTrip, res.P99RoundTrip, res.RequestRate)
		}
	case o.batch > 0:
		var res flatnet.BatchResult
		res, err = flatnet.RunBatch(g, alg, cfg, flatnet.BatchConfig{Pattern: p, BatchSize: o.batch, RunHooks: obs.hooks})
		if err = cmp.Or(err, obs.checked()); err == nil {
			fmt.Printf("batch %d per node: completed in %d cycles (normalized latency %.2f)\n",
				res.BatchSize, res.CompletionCycles, res.NormalizedLatency)
		}
	case o.sweep:
		err = runSweep(g, alg, cfg, src, o, obs)
	default:
		err = runPoint(g, alg, cfg, src, o, obs)
	}
	if err != nil {
		return err
	}
	return obs.report(o)
}

// conflicts rejects a count no run can use, and flag sets that ask for
// two things at once: two run modes, or an observer a mode cannot host —
// -analytic simulates no network, and -sweep simulates many, so neither
// can fill one output file.
func (o runOpts) conflicts() error {
	switch {
	case o.batch < 0:
		return fmt.Errorf("-batch must be >= 0, got %d", o.batch)
	case o.window < 0:
		return fmt.Errorf("-window must be >= 0, got %d", o.window)
	case o.chunk < 1:
		return fmt.Errorf("-chunk must be >= 1, got %d", o.chunk)
	case o.flitTrace != "" && o.traceCap < 1:
		return fmt.Errorf("-tracecap must be >= 1, got %d", o.traceCap)
	}
	flags := []string{"-analytic", "-sweep", "-batch", "-collective", "-window", "-trace-in", "-checkpoint", "-restore"}
	var on []string
	for i, set := range []bool{o.analytic, o.sweep, o.batch > 0, o.collective != "",
		o.window > 0, o.traceIn != "", o.checkpoint != "", o.restore != ""} {
		if set {
			on = append(on, flags[i])
		}
	}
	if len(on) > 1 {
		return fmt.Errorf("%s and %s are two run modes; pick one", on[0], on[1])
	}
	if o.analytic && (o.check || o.flitTrace != "" || o.traceOut != "") {
		return fmt.Errorf("-analytic simulates no network; drop -check, -flittrace and -trace-out")
	}
	if o.sweep && (o.flitTrace != "" || o.traceOut != "") {
		return fmt.Errorf("-flittrace and -trace-out write one network's file, and -sweep simulates many")
	}
	return nil
}

// observed is the run's one set of observers, attached to every
// network the mode simulates: the sanitizer (-check), the flit tracer
// (-flittrace), the workload recorder (-trace-out) and, when the mode
// simulates one network, the pipeline probes behind the report. Every
// mode folds checked (the sanitizer's verdict) into the run's error
// before it prints or writes anything.
type observed struct {
	hooks    flatnet.RunHooks
	checked  func() error
	tracer   *flatnet.Tracer
	recorded *[]flatnet.TraceEntry
	probes   *flatnet.Probes
}

// observers builds the run's observers from the flags.
func (o runOpts) observers() *observed {
	obs := &observed{hooks: flatnet.RunHooks{Stop: o.stop}, checked: func() error { return nil }}
	if o.flitTrace != "" {
		obs.tracer = flatnet.NewTracer(o.traceCap)
	}
	obs.hooks.Attach = func(n *flatnet.Network) {
		if o.traceOut != "" {
			obs.recorded = n.RecordTrace()
		}
		if obs.tracer != nil {
			n.AttachTracer(obs.tracer)
		}
		if !o.sweep {
			obs.probes = n.AttachProbes(flatnet.ProbeConfig{})
		}
	}
	if o.check {
		obs.checked = flatnet.ArmCheck(&obs.hooks.Attach, flatnet.CheckConfig{})
	}
	return obs
}

// report prints the probe report and writes the trace files.
func (obs *observed) report(o runOpts) error {
	if p := obs.probes; p != nil {
		fmt.Printf("pipeline: %d grants, %d conflicts, %d credit stalls, %d vc stalls, mean buffered %.1f flits\n",
			p.Grants, p.Conflicts, p.CreditStalls, p.VCStalls, p.MeanBufferedFlits())
		if top := p.TopChannels(5); len(top) > 0 {
			fmt.Println("hottest channels (probed flits over retained window):")
			for _, c := range top {
				fmt.Printf("  router %d port %d: %d flits (%.3f flits/cycle)\n",
					c.Router, c.Port, c.Flits, c.Rate)
			}
		}
	}
	if t := obs.tracer; t != nil { // JSON lines for .jsonl paths, else Chrome trace JSON
		if err := writeFile(o.flitTrace, func(w io.Writer) error {
			if strings.HasSuffix(o.flitTrace, ".jsonl") {
				return flatnet.WriteTraceJSONL(w, t.Events())
			}
			return flatnet.WriteChromeTrace(w, t.Events())
		}); err != nil {
			return err
		}
		fmt.Printf("flit trace: %d events (%d evicted) -> %s\n", t.Len(), t.Dropped(), o.flitTrace)
	}
	if rec := obs.recorded; rec != nil {
		if err := writeFile(o.traceOut, func(w io.Writer) error { return flatnet.WriteWorkloadJSONL(w, *rec) }); err != nil {
			return err
		}
		fmt.Printf("workload trace: %d packets -> %s\n", len(*rec), o.traceOut)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// runSweep measures the open-loop load sweep 0.1..0.95.
func runSweep(g *flatnet.Graph, alg flatnet.Algorithm, cfg flatnet.Config, src flatnet.Source, o runOpts, obs *observed) error {
	// The on/off process cannot offer more than its peak rate; sweep the
	// feasible prefix.
	loads := slices.DeleteFunc([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95},
		func(l float64) bool { return o.burstPeak > 0 && l > o.burstPeak })
	rc := flatnet.RunConfig{Source: src, Warmup: o.warmup, Measure: o.measure, RunHooks: obs.hooks}
	results, err := flatnet.LoadSweep(g, alg, cfg, rc, loads)
	if err = cmp.Or(err, obs.checked()); err != nil {
		return err
	}
	fmt.Printf("%-6s  %-12s  %-6s  %-6s  %-6s  %-6s  %-10s  %s\n",
		"load", "avg latency", "p50", "p95", "p99", "max", "accepted", "status")
	for _, r := range results {
		status := "ok"
		if r.Saturated {
			status = "saturated"
		}
		fmt.Printf("%-6.2f  %-12.2f  %-6d  %-6d  %-6d  %-6d  %-10.3f  %s\n",
			r.Load, r.AvgLatency, r.P50Latency, r.P95Latency, r.P99Latency, r.MaxLatency,
			r.AcceptedRate, status)
	}
	return nil
}

// runAnalytic evaluates the selected topology graph-analytically —
// no simulation, so instances far beyond cycle-accurate reach (100k+
// endpoints) report in well under a second.
func runAnalytic(net spec.Net) error {
	tp, err := net.Topology()
	if err != nil {
		return err
	}
	start := time.Now()
	m, err := flatnet.AnalyzeTopology(tp)
	if err != nil {
		return err
	}
	fmt.Printf("topology: %s (analytic, %v)\n", tp.Name(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  terminals %d, routers %d, network channels %d\n", m.Nodes, m.Routers, m.Channels)
	fmt.Printf("  diameter %d, avg min hops %.4f, path diversity %.3f\n", m.Diameter, m.AvgHops, m.PathDiversity)
	if m.BisectionLowerChannels > 0 {
		fmt.Printf("  bisection: %.0f..%.0f unidirectional channels (spectral lower .. best cut found)\n",
			m.BisectionLowerChannels, m.BisectionUpperChannels)
	} else {
		fmt.Printf("  bisection: <= %.0f unidirectional channels (best cut found)\n", m.BisectionUpperChannels)
	}
	return nil
}

// runPoint measures a single open-loop load point, optionally writing a
// checkpoint of the warmed network or restoring one instead of warming
// up.
func runPoint(g *flatnet.Graph, alg flatnet.Algorithm, cfg flatnet.Config, src flatnet.Source, o runOpts, obs *observed) error {
	rc := flatnet.RunConfig{
		Load: o.load, Source: src,
		Warmup: o.warmup, Measure: o.measure,
		RunHooks: obs.hooks,
	}
	if o.restore != "" {
		f, err := os.Open(o.restore)
		if err != nil {
			return err
		}
		defer f.Close()
		rc.Resume = f
	}
	var ckpt bytes.Buffer
	if o.checkpoint != "" {
		rc.Checkpoint = &ckpt
	}
	r, err := flatnet.RunLoadPoint(g, alg, cfg, rc)
	if err = cmp.Or(err, obs.checked()); err != nil {
		return err
	}
	if o.restore != "" {
		fmt.Printf("restored warm state from %s (measurement started at cycle %d)\n", o.restore, o.warmup)
	}
	if o.checkpoint != "" {
		if err := writeFile(o.checkpoint, func(w io.Writer) error { _, err := ckpt.WriteTo(w); return err }); err != nil {
			return err
		}
		fmt.Printf("warm checkpoint -> %s\n", o.checkpoint)
	}
	status := ""
	if r.Saturated {
		status = " [saturated]"
	}
	fmt.Printf("load %.2f: avg latency %.2f cycles (p50 %d, p95 %d, p99 %d, max %d), accepted %.3f%s\n",
		r.Load, r.AvgLatency, r.P50Latency, r.P95Latency, r.P99Latency, r.MaxLatency,
		r.AcceptedRate, status)
	return nil
}

// detail is the family-specific part of the topology header line.
func detail(t flatnet.Topology) string {
	switch t := t.(type) {
	case *flatnet.FlatFly:
		return fmt.Sprintf(", radix k'=%d", t.Radix)
	case *flatnet.SlimFly:
		return fmt.Sprintf(", degree k'=%d, diameter %d", t.NetworkDegree, t.Diameter())
	case *flatnet.Dragonfly:
		return fmt.Sprintf(", groups=%d", t.Groups)
	}
	return ""
}

// parseHotList parses the -hot comma-separated terminal list.
func parseHotList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	hot := make([]int, 0, len(parts))
	for _, part := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 0 {
			return nil, fmt.Errorf("-hot: bad terminal %q (want a comma-separated list of node ids)", part)
		}
		hot = append(hot, id)
	}
	return hot, nil
}

// runCollective executes one collective schedule to completion,
// optionally contending with background traffic at -load.
func runCollective(g *flatnet.Graph, alg flatnet.Algorithm, cfg flatnet.Config, src flatnet.Source, o runOpts, obs *observed) error {
	cc := flatnet.CollectiveConfig{
		Kind: o.collective, Packets: o.chunk,
		Warmup: o.warmup, RunHooks: obs.hooks,
	}
	if o.loadSet && o.load > 0 {
		cc.Load, cc.Source = o.load, src
	}
	res, err := flatnet.RunCollective(g, alg, cfg, cc)
	if err = cmp.Or(err, obs.checked()); err != nil {
		return err
	}
	bg := "quiet network"
	if cc.Load > 0 {
		bg = fmt.Sprintf("background %s at load %.2f", o.pattern, cc.Load)
	}
	fmt.Printf("%s over %d nodes (%s): %d phases, %d transfers, %d packets\n",
		res.Kind, res.Nodes, bg, res.Phases, res.Transfers, res.Packets)
	fmt.Printf("completed in %d cycles (max phase %d, avg phase %.1f)\n",
		res.Cycles, res.MaxPhaseCycles, res.AvgPhaseCycles)
	return nil
}

// runTraceJSONL streams a JSONL workload trace through the network in
// bounded memory and reports delivery latency. ReplayTrace runs on a
// network the caller builds, so the observers attach here.
func runTraceJSONL(g *flatnet.Graph, alg flatnet.Algorithm, cfg flatnet.Config, o runOpts, obs *observed) error {
	f, err := os.Open(o.traceIn)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := flatnet.NewNetwork(g, alg, cfg)
	if err != nil {
		return err
	}
	obs.hooks.Attach(n)
	var latSum float64
	var delivered int64
	n.AttachHooks(&flatnet.Hooks{Deliver: func(p *flatnet.Packet, cycle int64) {
		latSum += float64(cycle - p.InjectCycle)
		delivered++
	}})
	injected, err := n.ReplayTrace(flatnet.NewTraceScanner(f), 0, obs.hooks.Stop)
	if err = cmp.Or(err, obs.checked()); err != nil {
		return err
	}
	avg := 0.0
	if delivered > 0 {
		avg = latSum / float64(delivered)
	}
	fmt.Printf("replayed %d packets in %d cycles; avg latency %.2f cycles\n",
		injected, n.Cycle(), avg)
	return nil
}
