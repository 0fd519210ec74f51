package sim_test

import (
	"bytes"
	"runtime"
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// TestRestoreAllocBudget holds Restore to about a hundred heap objects
// on the network BenchmarkSnapshotRestore measures (the warmed 32-ary
// 2-flat under CLOS AD at 50 % uniform load). What is left is sim.New's
// slabs (the routers' and sources' random streams among them), one
// packet chunk per 256 live packets, the calendar blocks and the source
// backlogs' segments; decoding itself allocates nothing. (A Reader that
// took each varint byte through io.ReadFull made this 92 000; one Packet
// and one rng.Source per object made it 3024.)
func TestRestoreAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("warms a 1024-terminal network")
	}
	ff, err := topo.NewFlatFly(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("clos", ff)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	n, err := sim.New(ff.Graph(), alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
	for i := 0; i < 2000; i++ {
		sim.MustGenerate(t, n, 0.5)
		n.Step()
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		r, err := sim.Restore(bytes.NewReader(buf.Bytes()), ff.Graph(), alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	})
	t.Logf("Restore of a %d-byte snapshot: %.0f allocations", buf.Len(), allocs)
	if allocs > 100 {
		t.Fatalf("Restore of a %d-byte snapshot allocates %.0f objects, budget 100", buf.Len(), allocs)
	}
}

// TestCalendarTracksInFlight holds the event calendar to the events in
// flight: every list returns its block to the arena when its cycle
// drains, and a list grows by doubling from the smallest block, so at
// every cycle the lists' summed capacity is at most twice the events
// pending plus one smallest block per non-empty list. A calendar whose
// slots keep the capacity of the busiest cycle they ever drained holds
// several times that. It runs on the warmed 64-ary 2-flat of flatbench's
// core_4k_par (CLOS AD, uniform load 0.5) and on a 16-ary 2-flat at load
// 0.9, past MIN AD's saturation on the worst-case pattern.
func TestCalendarTracksInFlight(t *testing.T) {
	for _, c := range []struct {
		k       int
		alg     string
		pattern func(*topo.FlatFly) traffic.Pattern
		load    float64
		short   bool
	}{
		{64, "clos", func(ff *topo.FlatFly) traffic.Pattern { return traffic.NewUniform(ff.NumNodes) }, 0.5, false},
		{16, "min", func(ff *topo.FlatFly) traffic.Pattern { return traffic.NewWorstCase(ff.K, ff.NumRouters) }, 0.9, true},
	} {
		if testing.Short() && !c.short {
			continue
		}
		ff, err := topo.NewFlatFly(c.k, 2)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := routing.NewFlatFlyAlgorithm(c.alg, ff)
		if err != nil {
			t.Fatal(err)
		}
		n, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sim.MustInstall(t, n, c.pattern(ff))
		for i := 0; i < 600; i++ {
			sim.MustGenerate(t, n, c.load)
			n.Step()
		}
		peak := 0
		for i := 0; i < 200; i++ {
			sim.MustGenerate(t, n, c.load)
			n.Step()
			capacity, pending, lists := n.CalendarFootprint()
			if limit := 2*pending + sim.MinCalendarBlock*lists; capacity > limit {
				t.Fatalf("%d-ary 2-flat %s at load %.1f, cycle %d: calendar lists hold capacity for %d events with %d pending in %d lists (limit %d)",
					c.k, alg.Name(), c.load, n.Cycle(), capacity, pending, lists, limit)
			}
			peak = max(peak, pending)
		}
		if peak == 0 {
			t.Fatalf("%d-ary 2-flat %s: no event pending in 200 cycles", c.k, alg.Name())
		}
		n.Close()
	}
}

// TestSaturatedBacklogAllocBudget runs one load point far past
// saturation — MIN AD on the worst-case pattern saturates at 1/k, and
// the offered load is 0.9 — and holds the source backlogs to their two
// budgets. Live storage: the head windows plus at most 2 bytes per
// queued arrival (a saturated source's arrivals are a cycle or two
// apart, one byte each in the stream; 16-byte arrivals held 16). Growth:
// everything the run allocates, less the packet slab that holds the
// packets in flight, is at most twice the backlogs' final storage, so
// the stream grows by chunks that are never copied; a backlog that
// regrows by copying allocates several times its final size and does
// not.
func TestSaturatedBacklogAllocBudget(t *testing.T) {
	ff, err := topo.NewFlatFly(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("min", ff)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.TotalAlloc
	}
	n, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sim.MustInstall(t, n, traffic.NewWorstCase(ff.K, ff.NumRouters))
	built := allocated()
	for i := 0; i < 2000; i++ {
		sim.MustGenerate(t, n, 0.9)
		n.Step()
	}
	run := int64(allocated()-built) - sim.PacketSlabBytes(n)

	backlog := n.Backlog()
	if backlog < int64(n.NumNodes())*1000 {
		t.Fatalf("backlog of %d arrivals after 2000 cycles: the load point did not saturate", backlog)
	}
	windows, streams := sim.BacklogStorage(n)
	t.Logf("final backlog %d arrivals in %d bytes of windows and %d of streams (%.2f B/arrival); run allocated %d bytes besides the packet slab",
		backlog, windows, streams, float64(streams)/float64(backlog), run)
	if streams > 2*backlog {
		t.Fatalf("backlog of %d arrivals holds %d bytes of streams besides its windows; budget is 2 bytes per arrival", backlog, streams)
	}
	if storage := windows + streams; run > 2*storage {
		t.Fatalf("saturated run allocated %d bytes for %d bytes of final backlog storage; budget is twice that", run, storage)
	}
}

// TestSaturatedLiveHeap runs a full-scale load point past saturation —
// the 32-ary 2-flat under MIN AD on the worst-case pattern at load 0.9,
// with windows of 2000/2000 cycles and the 30 000-cycle cap — and holds
// the live heap at its end, the network and its 26 million queued
// arrivals, to 64 MB (16-byte arrivals held 434 MB).
func TestSaturatedLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 30 000 cycles of a 1024-terminal network")
	}
	ff, err := topo.NewFlatFly(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("min", ff)
	if err != nil {
		t.Fatal(err)
	}
	var live uint64
	var backlog int64
	res, err := sim.RunLoadPoint(ff.Graph(), alg, sim.DefaultConfig(), sim.RunConfig{
		Load: 0.9, Source: traffic.NewBernoulli(traffic.NewWorstCase(ff.K, ff.NumRouters)),
		Warmup: 2000, Measure: 2000, MaxCycles: 30000,
		Observe: func(n *sim.Network) {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			live, backlog = m.HeapAlloc, n.Backlog()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || backlog < 20_000_000 {
		t.Fatalf("run ended saturated=%v with %d queued arrivals; the scenario should saturate with over 20 million", res.Saturated, backlog)
	}
	t.Logf("%d queued arrivals, %.1f MB live", backlog, float64(live)/1e6)
	if live > 64<<20 {
		t.Fatalf("%.1f MB live at the end of the run, budget 64 MiB", float64(live)/(1<<20))
	}
}

// TestSnapshotEveryPrefixAndBitFlip is the exhaustive robustness slice
// for the snapshot container: a small real snapshot — mid-run, with a
// traced arrival and a transfer still queued in a source backlog — is
// restored from every proper prefix and with every single bit flipped,
// and each attempt must return an error (never a network, never a panic).
func TestSnapshotEveryPrefixAndBitFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("tens of thousands of restores")
	}
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("ugal", ff)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Seed: 7, BufPerPort: 8, PacketSize: 2}
	n, err := sim.New(ff.Graph(), alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
	for i := 0; i < 40; i++ {
		sim.MustGenerate(t, n, 0.3)
		n.Step()
	}
	tr, err := n.StartTransfer(3, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InjectAt(3, n.Cycle()+50, 9); err != nil {
		t.Fatal(err)
	}
	if err := n.InjectAt(8, n.Cycle()+5, 1); err != nil {
		t.Fatal(err)
	}
	sim.MustGenerate(t, n, 0.3)
	n.Step()
	if n.Backlog() < 4 || tr.Done() {
		t.Fatalf("scenario holds backlog %d, transfer done %v; want queued transfer arrivals and the transfer in flight", n.Backlog(), tr.Done())
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if r, err := sim.Restore(bytes.NewReader(data), ff.Graph(), alg, cfg); err != nil {
		t.Fatalf("pristine snapshot: %v", err)
	} else {
		r.Close()
	}
	for l := 0; l < len(data); l++ {
		if _, err := sim.Restore(bytes.NewReader(data[:l]), ff.Graph(), alg, cfg); err == nil {
			t.Fatalf("prefix of %d of %d bytes restored without error", l, len(data))
		}
	}
	mut := make([]byte, len(data))
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			copy(mut, data)
			mut[i] ^= 1 << bit
			if _, err := sim.Restore(bytes.NewReader(mut), ff.Graph(), alg, cfg); err == nil {
				t.Fatalf("flipping bit %d of byte %d (of %d) restored without error", bit, i, len(data))
			}
		}
	}
}
