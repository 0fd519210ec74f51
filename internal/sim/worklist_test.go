package sim_test

import (
	"runtime"
	"testing"
	"time"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// delivery is one observed packet delivery, in order.
type delivery struct {
	cycle    int64
	src, dst int
	inject   int64
	hops     int
}

// runScheduler drives one network to quiescence and returns its delivery
// sequence. stepAll selects the debug full-scan scheduler; false uses the
// active worklists.
func runScheduler(t *testing.T, ff *topo.FlatFly, algName string, cfg sim.Config, load float64, cycles int, stepAll bool) []delivery {
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
	sim.SetStepAll(n, stepAll)
	sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
	var out []delivery
	n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, cycle int64) {
		out = append(out, delivery{
			cycle: cycle, src: int(p.Src), dst: int(p.Dst),
			inject: p.InjectCycle, hops: p.Hops,
		})
	}})
	for i := 0; i < cycles; i++ {
		sim.MustGenerate(t, n, load)
		n.Step()
	}
	for i := 0; i < 20000 && !n.Quiescent(); i++ {
		n.Step()
	}
	if !n.Quiescent() {
		t.Fatalf("network failed to drain (alg=%s load=%.2f stepAll=%v)", algName, load, stepAll)
	}
	return out
}

func diffDeliveries(t *testing.T, full, work []delivery, label string) {
	t.Helper()
	if len(full) != len(work) {
		t.Fatalf("%s: delivery counts differ: full-scan %d vs worklist %d", label, len(full), len(work))
	}
	for i := range full {
		if full[i] != work[i] {
			t.Fatalf("%s: delivery %d differs:\n  full-scan: %+v\n  worklist:  %+v", label, i, full[i], work[i])
		}
	}
}

// TestWorklistMatchesStepAll is the scheduler-equivalence property: the
// active-worklist scheduler (which skips idle routers and sources) must
// deliver exactly the same packets, in the same order, at the same
// cycles, as the full-scan scheduler — across every FB routing algorithm.
// Skipping may only elide work that provably does nothing.
func TestWorklistMatchesStepAll(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"min", "val", "ugal", "ugal-s", "clos"} {
		for _, load := range []float64{0.05, 0.4, 0.9} {
			cfg := sim.DefaultConfig()
			full := runScheduler(t, ff, alg, cfg, load, 300, true)
			work := runScheduler(t, ff, alg, cfg, load, 300, false)
			if len(full) == 0 {
				t.Fatalf("%s load %.2f delivered nothing", alg, load)
			}
			diffDeliveries(t, full, work, alg)
		}
	}
	// The allocator paths beyond the default router: oldest-first
	// arbitration under a speedup cap, wormhole packets, and a router with
	// more than 64 ports (the 64-ary 2-flat has 127, so its occupancy and
	// request sets span several words).
	for _, c := range hardRouterCases(t) {
		full := runScheduler(t, c.ff, c.alg, c.cfg, c.load, c.cycles, true)
		work := runScheduler(t, c.ff, c.alg, c.cfg, c.load, c.cycles, false)
		if len(full) == 0 {
			t.Fatalf("%s delivered nothing", c.name)
		}
		diffDeliveries(t, full, work, c.name)
	}
}

// routerCase is one scheduler-equivalence configuration.
type routerCase struct {
	name   string
	ff     *topo.FlatFly
	alg    string
	cfg    sim.Config
	load   float64
	cycles int
}

// hardRouterCases lists the configurations that stress the switch
// allocator's request lists and multi-word port sets, for the worklist
// equivalence test.
func hardRouterCases(t *testing.T) []routerCase {
	t.Helper()
	ff4, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ff64, err := topo.NewFlatFly(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	var cases []routerCase
	for _, alg := range []string{"ugal", "clos"} {
		cases = append(cases,
			routerCase{alg + "/age+speedup1", ff4, alg, sim.Config{Seed: 2, BufPerPort: 16, AgeArbiter: true, Speedup: 1}, 0.9, 300},
			routerCase{alg + "/age+speedup2+4flit", ff4, alg, sim.Config{Seed: 3, BufPerPort: 16, AgeArbiter: true, Speedup: 2, PacketSize: 4}, 0.9, 300},
			routerCase{alg + "/4flit", ff4, alg, sim.Config{Seed: 4, BufPerPort: 16, PacketSize: 4}, 0.9, 300},
		)
	}
	return append(cases,
		routerCase{"64-ary/min", ff64, "min", sim.DefaultConfig(), 0.6, 40},
		routerCase{"64-ary/clos+age+speedup1+4flit", ff64, "clos", sim.Config{Seed: 5, BufPerPort: 16, AgeArbiter: true, Speedup: 1, PacketSize: 4}, 0.6, 40},
	)
}

// FuzzWorklistEquivalence fuzzes simulator configurations (topology
// shape, buffering, speedup, packet size, algorithm, load, seed) and
// requires the worklist and full-scan schedulers to produce identical
// delivery sequences — the FuzzInvariants harness aimed at scheduler
// equivalence rather than conservation.
func FuzzWorklistEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(0), uint8(16), uint8(0), uint8(1), uint8(40), uint64(1))
	f.Add(uint8(2), uint8(3), uint8(2), uint8(8), uint8(1), uint8(4), uint8(80), uint64(2))
	f.Add(uint8(3), uint8(2), uint8(4), uint8(4), uint8(2), uint8(6), uint8(60), uint64(3))
	f.Add(uint8(4), uint8(3), uint8(3), uint8(32), uint8(0), uint8(2), uint8(90), uint64(4))
	// Four-flit packets under a speedup cap of 1 and 2, near saturation.
	f.Add(uint8(2), uint8(0), uint8(4), uint8(3), uint8(1), uint8(3), uint8(95), uint64(5))
	f.Add(uint8(2), uint8(1), uint8(2), uint8(1), uint8(2), uint8(3), uint8(85), uint64(6))
	f.Fuzz(func(t *testing.T, k, n, algSel, buf, speedup, pktSize, loadPct uint8, seed uint64) {
		ks := 2 + int(k)%3 // 2..4
		ns := 2 + int(n)%2 // 2..3
		ps := 1 + int(pktSize)%6
		cfg := sim.Config{
			Seed:       seed,
			BufPerPort: ps * (1 + int(buf)%4),
			Speedup:    int(speedup) % 3,
			PacketSize: ps,
		}
		ff, err := topo.NewFlatFly(ks, ns)
		if err != nil {
			t.Fatal(err)
		}
		algs := []string{"min", "val", "ugal", "ugal-s", "clos"}
		alg := algs[int(algSel)%len(algs)]
		load := float64(int(loadPct)%101) / 100
		full := runScheduler(t, ff, alg, cfg, load, 200, true)
		work := runScheduler(t, ff, alg, cfg, load, 200, false)
		diffDeliveries(t, full, work, alg)
	})
}

// TestSetWorkersLifecycle pins what is left of the retired parallel
// scheduler's API: SetWorkers rejects a negative count and otherwise does
// nothing — Workers stays 1, no goroutine starts, and the deliveries equal
// an untouched twin's — and Close is idempotent.
func TestSetWorkersLifecycle(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []delivery {
		alg, err := routing.NewFlatFlyAlgorithm("clos", ff)
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
		before := settledGoroutines()
		if workers != 0 {
			if err := n.SetWorkers(workers); err != nil {
				t.Fatal(err)
			}
		}
		sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
		var out []delivery
		n.AttachHooks(&sim.Hooks{Deliver: recordInto(&out)})
		for i := 0; i < 200; i++ {
			sim.MustGenerate(t, n, 0.4)
			n.Step()
		}
		if got := n.Workers(); got != 1 {
			t.Fatalf("Workers() = %d after SetWorkers(%d), want 1", got, workers)
		}
		if after := settledGoroutines(); after != before {
			t.Fatalf("SetWorkers(%d) and 200 cycles changed the goroutine count: %d -> %d", workers, before, after)
		}
		n.Close()
		n.Close() // idempotent
		return out
	}
	untouched := run(0)
	if len(untouched) == 0 {
		t.Fatal("delivered nothing")
	}
	diffDeliveries(t, untouched, run(8), "SetWorkers(8)")
}

// settledGoroutines returns runtime.NumGoroutine once it has read the
// same value for 20 ms, so a goroutine an earlier test left exiting is
// gone before the count is compared. It gives up after 2 s and returns
// the last reading.
func settledGoroutines() int {
	deadline := time.Now().Add(2 * time.Second)
	last, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 20*time.Millisecond && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if c := runtime.NumGoroutine(); c != last {
			last, since = c, time.Now()
		}
	}
	return last
}
