package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"flatnet"
	"flatnet/internal/rng"
	"flatnet/internal/sim"
)

// timedAlg forwards an Algorithm and times every sampleStride-th Route.
// Its counters are unsynchronized, so it is only ever installed on a
// network that runs with one worker.
type timedAlg struct {
	inner flatnet.Algorithm
	route sampler
}

func (a *timedAlg) Name() string     { return a.inner.Name() }
func (a *timedAlg) NumVCs() int      { return a.inner.NumVCs() }
func (a *timedAlg) Sequential() bool { return a.inner.Sequential() }

func (a *timedAlg) Route(v *flatnet.RouterView, p *flatnet.Packet) sim.OutRef {
	if !a.route.sample() {
		return a.inner.Route(v, p)
	}
	t := time.Now()
	out := a.inner.Route(v, p)
	a.route.record(time.Since(t))
	return out
}

// timedSource forwards a Source and samples Arrivals and Dest the same way.
type timedSource struct {
	inner    flatnet.Source
	arrivals sampler
	dest     sampler
}

func (s *timedSource) Name() string            { return s.inner.Name() }
func (s *timedSource) State() ([]byte, error)  { return s.inner.State() }
func (s *timedSource) SetState(b []byte) error { return s.inner.SetState(b) }

func (s *timedSource) Arrivals(src flatnet.NodeID, load float64, pktFlits int, r *rng.Source) int {
	if !s.arrivals.sample() {
		return s.inner.Arrivals(src, load, pktFlits, r)
	}
	t := time.Now()
	k := s.inner.Arrivals(src, load, pktFlits, r)
	s.arrivals.record(time.Since(t))
	return k
}

func (s *timedSource) Dest(src flatnet.NodeID, r *rng.Source) flatnet.NodeID {
	if !s.dest.sample() {
		return s.inner.Dest(src, r)
	}
	t := time.Now()
	d := s.inner.Dest(src, r)
	s.dest.record(time.Since(t))
	return d
}

// coreSpec is one cycle-core workload: a k-ary 2-flat, a routing
// algorithm, a pattern and a load. Cycle counts are before scaling.
type coreSpec struct {
	k         int
	alg       string
	worstCase bool
	load      float64
	warmup    int
	block     int
}

// coreNet is a built, warmed network with the pieces needed to restore
// a copy of it.
type coreNet struct {
	spec coreSpec
	ff   *flatnet.FlatFly
	alg  flatnet.Algorithm
	cfg  flatnet.Config
	net  *flatnet.Network
	// talg and tsrc are the sampling decorators, nil when undecorated.
	talg *timedAlg
	tsrc *timedSource

	topoMS, routingMS, simNewMS float64
}

func (c *coreNet) source() flatnet.Source {
	var pat flatnet.Pattern
	if c.spec.worstCase {
		pat = flatnet.NewWorstCase(c.ff.K, c.ff.NumRouters)
	} else {
		pat = flatnet.NewUniform(c.ff.NumNodes)
	}
	src := flatnet.Source(flatnet.NewBernoulliSource(pat))
	if c.tsrc != nil {
		c.tsrc.inner = src
		src = c.tsrc
	}
	return src
}

// buildCore constructs the network layer by layer, one span each, and
// warms it up. With decorate, Route, Arrivals and Dest are sampled.
func buildCore(e *runEnv, spec coreSpec, parent int, decorate bool) (*coreNet, error) {
	c := &coreNet{spec: spec, cfg: flatnet.DefaultConfig()}
	c.cfg.Seed = e.seed
	var err error
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	c.topoMS = ms(e.tr.timed(parent, "setup.topo", func() {
		if c.ff, err = flatnet.NewFlatFly(spec.k, 2); err == nil {
			c.ff.Graph()
		}
	}))
	if err != nil {
		return nil, err
	}
	c.routingMS = ms(e.tr.timed(parent, "setup.routing", func() {
		c.alg, err = flatnet.NewFlatFlyAlgorithm(spec.alg, c.ff)
	}))
	if err != nil {
		return nil, err
	}
	if decorate {
		c.talg = &timedAlg{inner: c.alg}
		c.alg = c.talg
		c.tsrc = &timedSource{}
	}
	c.simNewMS = ms(e.tr.timed(parent, "setup.sim_new", func() {
		c.net, err = flatnet.NewNetwork(c.ff.Graph(), c.alg, c.cfg)
	}))
	if err != nil {
		return nil, err
	}
	if err = c.net.SetSource(c.source()); err != nil {
		return nil, err
	}
	if spec.warmup > 0 {
		e.tr.timed(parent, "setup.warmup", func() {
			err = runBlock(c.net, spec.load, e.cycles(spec.warmup, 50), false).err
		})
	}
	return c, err
}

// restore returns a copy of the network as of the snapshot, running with
// the given worker count.
func (c *coreNet) restore(snap []byte, workers int) (*flatnet.Network, error) {
	n, err := flatnet.Restore(bytes.NewReader(snap), c.ff.Graph(), c.alg, c.cfg)
	if err != nil {
		return nil, err
	}
	if err := n.SetWorkers(workers); err != nil {
		return nil, err
	}
	return n, n.SetSource(c.source())
}

func channelFlits(n *flatnet.Network) int64 {
	var sum int64
	for _, cl := range n.ChannelLoads() {
		sum += cl.Flits
	}
	return sum
}

// conserved checks that every flit injected is delivered, buffered or in
// flight, and that source queues are not growing without bound.
func conserved(n *flatnet.Network) error {
	inj, del := n.FlitTotals()
	buf, fly := n.Inventory()
	if inj != del+int64(buf)+int64(fly) {
		return fmt.Errorf("flit conservation: injected %d != delivered %d + buffered %d + in flight %d", inj, del, buf, fly)
	}
	if b, limit := n.Backlog(), int64(8*n.NumNodes()); b > limit {
		return fmt.Errorf("source backlog %d exceeds %d", b, limit)
	}
	return nil
}

func netDigest(d *digest, n *flatnet.Network) {
	pi, pd := n.Totals()
	fi, fd := n.FlitTotals()
	buf, fly := n.Inventory()
	d.add(n.Cycle(), pi, pd, fi, fd, buf, fly, n.Backlog())
	for _, cl := range n.ChannelLoads() {
		d.add(cl.Flits)
	}
}

// blockTimes is what one timed block of cycles cost the host.
type blockTimes struct {
	start    time.Time
	wall     time.Duration
	generate time.Duration // filled only when split
	step     time.Duration
	cycleMS  []float64
	err      error
}

// runBlock advances n by cycles × (Generate + Step) and times every
// cycle. With split it also separates Generate from Step, at the price of
// one more clock reading per cycle.
func runBlock(n *flatnet.Network, load float64, cycles int, split bool) blockTimes {
	b := blockTimes{cycleMS: make([]float64, 0, cycles), start: time.Now()}
	prev := b.start
	for i := 0; i < cycles; i++ {
		if b.err = n.Generate(load); b.err != nil {
			return b
		}
		if split {
			mid := time.Now()
			b.generate += mid.Sub(prev)
			n.Step()
			now := time.Now()
			b.step += now.Sub(mid)
			b.cycleMS = append(b.cycleMS, float64(now.Sub(prev).Nanoseconds())/1e6)
			prev = now
			continue
		}
		n.Step()
		now := time.Now()
		b.cycleMS = append(b.cycleMS, float64(now.Sub(prev).Nanoseconds())/1e6)
		prev = now
	}
	b.wall = prev.Sub(b.start)
	return b
}

func (b blockTimes) window(cycles int) window {
	return window{wall: b.wall.Seconds(), work: float64(cycles), ops: b.cycleMS}
}

// digestBlocks is how many timed blocks enter sim_digest. Runs are bounded
// by time, so only a fixed prefix of them is the same on every host.
const digestBlocks = 8

// runCore is core_ur and core_wc: one warmed 1024-terminal network stepped
// in timed blocks at workers=1.
func runCore(e *runEnv, spec coreSpec, observers bool) (*outcome, error) {
	o := &outcome{}
	var c *coreNet
	// Set-up is repeated so its median is steady; the last network is kept.
	for rep := 0; rep < setupRepeats; rep++ {
		id := e.tr.begin(0, "setup")
		start := time.Now()
		var err error
		if c, err = buildCore(e, spec, id, e.traced()); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
		e.tr.end(id)
		// Repeats must not pile up in peak_rss_mb.
		if rep < setupRepeats-1 {
			c = nil
			runtime.GC()
		}
	}
	n := c.net
	block := e.cycles(spec.block, 10)
	if c.talg != nil {
		c.talg.route, c.tsrc.arrivals, c.tsrc.dest = sampler{}, sampler{}, sampler{}
	}
	_, del0 := n.FlitTotals()
	hops0, cyc0 := channelFlits(n), n.Cycle()
	var ms0 runtime.MemStats
	if e.traced() {
		runtime.ReadMemStats(&ms0)
	}

	var generate, step time.Duration
	var d digest
	measure := e.tr.begin(0, "measure")
	for i, end := 0, e.deadline(); i < digestBlocks || time.Now().Before(end); i++ {
		var prevRoute, prevDest, prevArr float64
		if c.talg != nil {
			prevRoute, prevDest, prevArr = c.talg.route.totalNS(), c.tsrc.dest.totalNS(), c.tsrc.arrivals.totalNS()
		}
		b := runBlock(n, spec.load, block, e.traced())
		o.attempted++
		if b.err != nil {
			o.fail("block %d: %v", i, b.err)
			break
		}
		if err := conserved(n); err != nil {
			o.fail("block %d: %v", i, err)
		}
		o.windows = append(o.windows, b.window(block))
		generate += b.generate
		step += b.step
		if e.traced() {
			// The block's Generate and Step calls alternate cycle by cycle;
			// their spans are the per-call times laid end to end.
			name := fmt.Sprintf("block[%d]", i)
			id := e.tr.add(measure, name, b.start, b.wall, nil)
			e.tr.add(id, name+".generate", b.start, b.generate, map[string]float64{
				"arrivals_ns": c.tsrc.arrivals.totalNS() - prevArr,
			})
			e.tr.add(id, name+".step", b.start.Add(b.generate), b.step, map[string]float64{
				"route_ns": c.talg.route.totalNS() - prevRoute,
				"dest_ns":  c.tsrc.dest.totalNS() - prevDest,
			})
		}
		if i == digestBlocks-1 {
			netDigest(&d, n)
			o.digest = d.sum()
		}
	}
	e.tr.end(measure)

	cycles := float64(n.Cycle() - cyc0)
	_, del1 := n.FlitTotals()
	accepted := float64(del1-del0) / (cycles * float64(n.NumNodes()))
	o.check(accepted > spec.load*0.98 && accepted < spec.load*1.02,
		"accepted %.4f flits/node/cycle is not within 2%% of offered %.2f", accepted, spec.load)

	if e.traced() {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		hops := float64(channelFlits(n) - hops0)
		stepNS, genNS := float64(step.Nanoseconds()), float64(generate.Nanoseconds())
		routeNS, destNS := c.talg.route.totalNS(), c.tsrc.dest.totalNS()
		o.set("topo.build_ms.flatfly", c.topoMS)
		o.set("routing.build_ms", c.routingMS)
		o.set("sim.new_ms", c.simNewMS)
		o.set("routing.route_calls_per_cycle", float64(c.talg.route.calls)/cycles)
		o.set("routing.route_ns_per_call", c.talg.route.nsPerCall())
		o.set("routing.route_share", routeNS/(stepNS+genNS))
		o.set("traffic.arrivals_ns_per_node_cycle", c.tsrc.arrivals.nsPerCall())
		o.set("traffic.dest_ns_per_call", c.tsrc.dest.nsPerCall())
		o.set("traffic.dest_calls_per_cycle", float64(c.tsrc.dest.calls)/cycles)
		o.set("sim.generate_us_per_cycle", genNS/1e3/cycles)
		o.set("sim.step_us_per_cycle", stepNS/1e3/cycles)
		o.set("sim.flit_hops_per_cycle", hops/cycles)
		o.set("sim.ns_per_flit_hop", stepNS/hops)
		o.set("sim.step_self_share", (stepNS-routeNS-destNS)/(stepNS+genNS))
		o.set("sim.allocs_per_cycle", float64(ms1.Mallocs-ms0.Mallocs)/cycles)
		o.set("sim.backlog_end", float64(n.Backlog()))
		o.set("sim.workers", 1)
		if err := snapshotProbe(e, o, c); err != nil {
			return nil, err
		}
		if observers {
			if err := observerProbe(e, o, spec); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// snapshotProbe times Snapshot and Restore of the warmed network.
func snapshotProbe(e *runEnv, o *outcome, c *coreNet) error {
	var buf bytes.Buffer
	var err error
	snap := e.tr.timed(0, "probe.snapshot", func() { err = c.net.Snapshot(&buf) })
	if err != nil {
		return err
	}
	var copyNet *flatnet.Network
	rest := e.tr.timed(0, "probe.restore", func() { copyNet, err = c.restore(buf.Bytes(), 1) })
	if err != nil {
		return err
	}
	copyNet.Close()
	o.set("sim.snapshot_ms", snap.Seconds()*1e3)
	o.set("sim.restore_ms", rest.Seconds()*1e3)
	o.set("sim.snapshot_bytes", float64(buf.Len()))
	o.set("sim.snapshot_mb_per_s", float64(buf.Len())/1e6/snap.Seconds())
	return nil
}

// observerProbe steps three fresh copies of the workload's network through
// the same cycles — bare, with the sanitizer, with telemetry probes — and
// reports what the observers cost per step.
func observerProbe(e *runEnv, o *outcome, spec coreSpec) error {
	cycles := e.cycles(600, 20)
	run := func(name string, attach func(n *flatnet.Network) func() error) (time.Duration, error) {
		quiet := *e
		quiet.tr = nil
		spec := spec
		spec.warmup = 0
		c, err := buildCore(&quiet, spec, 0, false)
		if err != nil {
			return 0, err
		}
		defer c.net.Close()
		finish := attach(c.net)
		var b blockTimes
		e.tr.timed(0, name, func() { b = runBlock(c.net, spec.load, cycles, true) })
		if b.err != nil {
			return 0, b.err
		}
		return b.step, finish()
	}
	bare, err := run("probe.bare", func(*flatnet.Network) func() error { return func() error { return nil } })
	if err != nil {
		return err
	}
	checked, err := run("probe.check", func(n *flatnet.Network) func() error {
		return flatnet.AttachChecker(n, flatnet.CheckConfig{}).Err
	})
	o.check(err == nil, "sanitizer: %v", err)
	probed, err := run("probe.telemetry", func(n *flatnet.Network) func() error {
		n.AttachProbes(flatnet.ProbeConfig{})
		return func() error { return nil }
	})
	if err != nil {
		return err
	}
	o.set("check.step_overhead_ratio", checked.Seconds()/bare.Seconds())
	o.set("telemetry.probes_overhead_ratio", probed.Seconds()/bare.Seconds())
	return nil
}

// runCorePar is core_4k_par: a 4096-terminal network warmed once, then two
// restored copies — one worker and min(nproc, 8) workers — advanced
// through the same cycles in alternating blocks.
func runCorePar(e *runEnv, spec coreSpec) (*outcome, error) {
	o := &outcome{}
	workers := e.nproc
	if workers > 8 {
		workers = 8
	}
	block := e.cycles(spec.block, 10)

	var c *coreNet
	var w1, wN *flatnet.Network
	var snap bytes.Buffer
	var snapD, restD time.Duration
	id := e.tr.begin(0, "setup")
	start := time.Now()
	c, err := buildCore(e, spec, id, false)
	if err != nil {
		return nil, err
	}
	snapD = e.tr.timed(id, "setup.snapshot", func() { err = c.net.Snapshot(&snap) })
	if err != nil {
		return nil, err
	}
	c.net.Close()
	restD = e.tr.timed(id, "setup.restore", func() {
		if w1, err = c.restore(snap.Bytes(), 1); err == nil {
			wN, err = c.restore(snap.Bytes(), workers)
		}
	})
	if err != nil {
		return nil, err
	}
	defer w1.Close()
	defer wN.Close()
	// The first Step partitions the network and starts its workers.
	e.tr.timed(id, "setup.prime", func() {
		for _, n := range []*flatnet.Network{w1, wN} {
			if b := runBlock(n, spec.load, 5, false); b.err != nil {
				err = b.err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	o.setups = append(o.setups, time.Since(start).Seconds())
	e.tr.end(id)

	_, del0 := wN.FlitTotals()
	cyc0 := wN.Cycle()
	const minPairs = 3
	var d digest
	measure := e.tr.begin(0, "measure")
	for i, end := 0, e.deadline(); i < minPairs || time.Now().Before(end); i++ {
		// w1,wN then wN,w1: neither side always runs on a cold cache.
		order := []*flatnet.Network{w1, wN}
		if i%2 == 1 {
			order[0], order[1] = wN, w1
		}
		for _, n := range order {
			b := runBlock(n, spec.load, block, false)
			o.attempted++
			if b.err != nil {
				o.fail("block %d: %v", i, b.err)
				continue
			}
			name := "wN"
			if n == w1 {
				o.windows = append(o.windows, b.window(block))
				name = "w1"
			} else {
				o.twin = append(o.twin, b.window(block))
			}
			e.tr.add(measure, fmt.Sprintf("block[%d].%s", i, name), b.start, b.wall, nil)
		}
		if err := conserved(wN); err != nil {
			o.fail("block %d: %v", i, err)
		}
		if i == minPairs-1 {
			netDigest(&d, wN)
			o.digest = d.sum()
		}
	}
	e.tr.end(measure)

	var d1, dN digest
	netDigest(&d1, w1)
	netDigest(&dN, wN)
	o.check(d1.sum() == dN.sum(), "workers=1 and workers=%d networks diverged: %s vs %s", workers, d1.sum(), dN.sum())
	_, del1 := wN.FlitTotals()
	accepted := float64(del1-del0) / (float64(wN.Cycle()-cyc0) * float64(wN.NumNodes()))
	o.check(accepted > spec.load*0.98 && accepted < spec.load*1.02,
		"accepted %.4f flits/node/cycle is not within 2%% of offered %.2f", accepted, spec.load)

	if e.traced() {
		seq, par := summarize(rates(o.windows), quietRate).Value, summarize(rates(o.twin), quietRate).Value
		o.set("topo.build_ms.flatfly", c.topoMS)
		o.set("routing.build_ms", c.routingMS)
		o.set("sim.new_ms", c.simNewMS)
		o.set("sim.par_step_us_per_cycle.w1", 1e6/seq)
		o.set("sim.par_step_us_per_cycle.wN", 1e6/par)
		o.set("sim.parallel_speedup", par/seq)
		o.set("sim.parallel_efficiency", par/seq/float64(wN.Workers()))
		o.set("sim.workers", float64(wN.Workers()))
		o.set("sim.backlog_end", float64(wN.Backlog()))
		o.set("sim.snapshot_ms", snapD.Seconds()*1e3)
		o.set("sim.restore_ms", restD.Seconds()*1e3/2)
		o.set("sim.snapshot_bytes", float64(snap.Len()))
		o.set("sim.snapshot_mb_per_s", float64(snap.Len())/1e6/snapD.Seconds())
	}
	return o, nil
}
