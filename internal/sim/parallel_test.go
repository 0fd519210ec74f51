package sim_test

import (
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// runShardScheduler drives one network to quiescence under the sharded
// scheduler with the given worker count and returns its delivery
// sequence — runScheduler's parallel twin. workers=1 is the sequential
// reference.
func runShardScheduler(t *testing.T, ff *topo.FlatFly, algName string, cfg sim.Config, load float64, cycles, workers int) []delivery {
	t.Helper()
	alg, err := routing.NewFlatFlyAlgorithm(algName, ff)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BufPerPort < alg.NumVCs()*cfg.PacketSize {
		cfg.BufPerPort = alg.NumVCs() * cfg.PacketSize
	}
	n, err := sim.New(ff.Graph(), alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.SetWorkers(workers); err != nil {
		t.Fatal(err)
	}
	sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
	var out []delivery
	n.OnDeliver(func(p *sim.Packet, cycle int64) {
		out = append(out, delivery{
			cycle: cycle, src: int(p.Src), dst: int(p.Dst),
			inject: p.InjectCycle, hops: p.Hops,
		})
	})
	for i := 0; i < cycles; i++ {
		sim.MustGenerate(t, n, load)
		n.Step()
	}
	for i := 0; i < 20000 && !n.Quiescent(); i++ {
		n.Step()
	}
	if !n.Quiescent() {
		t.Fatalf("network failed to drain (alg=%s load=%.2f workers=%d)", algName, load, workers)
	}
	if workers > 1 {
		want := workers
		if r := len(ff.Graph().Routers); want > r {
			want = r
		}
		if got := sim.NumShards(n); got != want {
			t.Fatalf("expected %d shards, scheduler ran with %d", want, got)
		}
	}
	return out
}

// TestShardMatchesSequential is the sharded-scheduler equivalence
// property: partitioning routers across worker goroutines must deliver
// exactly the same packets, in the same order, at the same cycles, as
// the sequential core — across every FB routing algorithm, both
// arbiters, and several worker counts (including counts that do not
// divide the router count evenly).
func TestShardMatchesSequential(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"min", "val", "ugal", "ugal-s", "clos"} {
		for _, load := range []float64{0.05, 0.4, 0.9} {
			for _, age := range []bool{false, true} {
				cfg := sim.DefaultConfig()
				cfg.AgeArbiter = age
				seq := runShardScheduler(t, ff, alg, cfg, load, 300, 1)
				if len(seq) == 0 {
					t.Fatalf("%s load %.2f delivered nothing", alg, load)
				}
				for _, workers := range []int{2, 3, 8} {
					par := runShardScheduler(t, ff, alg, cfg, load, 300, workers)
					diffDeliveries(t, seq, par, alg)
				}
			}
		}
	}
	for _, c := range hardRouterCases(t) {
		seq := runShardScheduler(t, c.ff, c.alg, c.cfg, c.load, c.cycles, 1)
		if len(seq) == 0 {
			t.Fatalf("%s delivered nothing", c.name)
		}
		par := runShardScheduler(t, c.ff, c.alg, c.cfg, c.load, c.cycles, 3)
		diffDeliveries(t, seq, par, c.name)
	}
}

// TestShardCountersMatchSequential pins the bookkeeping surface, not just
// the delivery stream: lifetime packet/flit totals and measured-window
// counts must agree between worker counts.
func TestShardCountersMatchSequential(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	type totals struct {
		inj, del, fin, fdel, mc, md int64
	}
	run := func(workers int) totals {
		alg, err := routing.NewFlatFlyAlgorithm("clos", ff)
		if err != nil {
			t.Fatal(err)
		}
		n, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if err := n.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
		sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
		n.SetMeasurementWindow(50, 150)
		for i := 0; i < 200; i++ {
			sim.MustGenerate(t, n, 0.4)
			n.Step()
		}
		for i := 0; i < 20000 && !n.Quiescent(); i++ {
			n.Step()
		}
		var tt totals
		tt.inj, tt.del = n.Totals()
		tt.fin, tt.fdel = n.FlitTotals()
		tt.mc, tt.md = n.MeasuredCounts()
		return tt
	}
	seq := run(1)
	for _, workers := range []int{2, 4} {
		if par := run(workers); par != seq {
			t.Fatalf("workers=%d counters diverged:\n  sequential: %+v\n  parallel:   %+v", workers, seq, par)
		}
	}
}

// TestSetWorkersLifecycle pins the API contract: SetWorkers rejects a
// started network, Workers reports the requested count before the first
// Step and the frozen partition after, and Close is idempotent.
func TestSetWorkersLifecycle(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("min", ff)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetWorkers(-1); err == nil {
		t.Fatal("SetWorkers(-1) should fail")
	}
	if err := n.SetWorkers(4); err != nil {
		t.Fatal(err)
	}
	if got := n.Workers(); got != 4 {
		t.Fatalf("Workers() before Step = %d, want 4", got)
	}
	n.Step()
	if err := n.SetWorkers(2); err == nil {
		t.Fatal("SetWorkers after Step should fail")
	}
	if got := n.Workers(); got != 4 {
		t.Fatalf("Workers() after Step = %d, want 4", got)
	}
	n.Close()
	n.Close() // idempotent
}

// TestShardInstrumentationFallsBack pins that attaching any
// instrumentation before the first Step downgrades a multi-worker
// request to the (observationally identical) sequential scheduler.
func TestShardInstrumentationFallsBack(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("min", ff)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.SetWorkers(4); err != nil {
		t.Fatal(err)
	}
	n.AttachProbes(sim.ProbeConfig{})
	sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
	n.Step()
	if got := sim.NumShards(n); got != 1 {
		t.Fatalf("instrumented network partitioned into %d shards; want sequential fallback", got)
	}
	if got := n.Workers(); got != 1 {
		t.Fatalf("Workers() after fallback = %d, want 1", got)
	}
}

// TestShardTransfers drives StartTransfer through the parallel scheduler
// and checks the handle observes the same completion as sequential.
func TestShardTransfers(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (int64, int) {
		alg, err := routing.NewFlatFlyAlgorithm("clos", ff)
		if err != nil {
			t.Fatal(err)
		}
		n, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if err := n.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
		sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
		for i := 0; i < 100; i++ {
			sim.MustGenerate(t, n, 0.3)
			n.Step()
		}
		xf, err := n.StartTransfer(0, 11, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000 && !xf.Done(); i++ {
			sim.MustGenerate(t, n, 0.3)
			n.Step()
		}
		if !xf.Done() {
			t.Fatalf("transfer did not complete (workers=%d)", workers)
		}
		if n.PendingTransfers() != 0 {
			t.Fatalf("transfer map did not drain (workers=%d)", workers)
		}
		return xf.Latency(), xf.Hops()
	}
	seqLat, seqHops := run(1)
	parLat, parHops := run(4)
	if seqLat != parLat || seqHops != parHops {
		t.Fatalf("transfer observation diverged: sequential (%d cycles, %d hops) vs parallel (%d cycles, %d hops)",
			seqLat, seqHops, parLat, parHops)
	}
}

// TestStepZeroAllocParallel extends the hot path's zero-allocation
// contract to the sharded scheduler: once warm, a parallel cycle must
// not allocate on any goroutine (AllocsPerRun counts all of them).
func TestStepZeroAllocParallel(t *testing.T) {
	ff, err := topo.NewFlatFly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("clos", ff)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.SetWorkers(4); err != nil {
		t.Fatal(err)
	}
	sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
	// Both loads of TestStepZeroAlloc, on the one network: sources that
	// drain, then sources that rarely do.
	for _, load := range []float64{0.5, 0.8} {
		for i := 0; i < 2000; i++ {
			sim.MustGenerate(t, n, load)
			n.Step()
		}
		avg := testing.AllocsPerRun(400, func() {
			sim.MustGenerate(t, n, load)
			n.Step()
		})
		// Allow a tiny slack for rare worklist/outbox growth events that the
		// warmup did not reach, mirroring TestStepZeroAlloc.
		if avg > 0.05 {
			t.Fatalf("parallel steady-state Step allocates: %.3f allocs/op", avg)
		}
	}
}

// FuzzShardEquivalence fuzzes simulator configurations (topology shape,
// buffering, speedup, packet size, router delay, arbiter, algorithm,
// load, seed, worker count) and requires the sharded scheduler to
// produce delivery sequences identical to workers=1 — the
// FuzzWorklistEquivalence harness aimed at the parallel partition
// rather than the worklists.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(0), uint8(16), uint8(0), uint8(1), uint8(40), uint64(1), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(3), uint8(2), uint8(8), uint8(1), uint8(4), uint8(80), uint64(2), uint8(1), uint8(1))
	f.Add(uint8(3), uint8(2), uint8(4), uint8(4), uint8(2), uint8(6), uint8(60), uint64(3), uint8(2), uint8(3))
	f.Add(uint8(4), uint8(3), uint8(3), uint8(32), uint8(0), uint8(2), uint8(90), uint64(4), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, k, n, algSel, buf, speedup, pktSize, loadPct uint8, seed uint64, workSel, extra uint8) {
		ks := 2 + int(k)%3 // 2..4
		ns := 2 + int(n)%2 // 2..3
		ps := 1 + int(pktSize)%6
		cfg := sim.Config{
			Seed:        seed,
			BufPerPort:  ps * (1 + int(buf)%4),
			Speedup:     int(speedup) % 3,
			PacketSize:  ps,
			AgeArbiter:  extra&1 != 0,
			RouterDelay: int(extra>>1) % 3,
		}
		ff, err := topo.NewFlatFly(ks, ns)
		if err != nil {
			t.Fatal(err)
		}
		algs := []string{"min", "val", "ugal", "ugal-s", "clos"}
		alg := algs[int(algSel)%len(algs)]
		load := float64(int(loadPct)%101) / 100
		seq := runShardScheduler(t, ff, alg, cfg, load, 200, 1)
		workers := []int{2, 3, 8}[int(workSel)%3]
		par := runShardScheduler(t, ff, alg, cfg, load, 200, workers)
		diffDeliveries(t, seq, par, alg)
	})
}
