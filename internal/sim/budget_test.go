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
// the offered load is 0.9 — and holds everything the run allocates to
// twice what its final source backlog occupies, plus what building the
// network allocated. The backlog is the only thing in a saturated run
// that grows, so this is a bound on how its storage grows: segments that
// are never copied stay under it; a backlog that regrows by copying
// allocates several times its final size and does not.
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
	before := allocated()
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
	ran := allocated()

	backlog := n.Backlog()
	if backlog < int64(n.NumNodes())*1000 {
		t.Fatalf("backlog of %d arrivals after 2000 cycles: the load point did not saturate", backlog)
	}
	construction, run := built-before, ran-built
	t.Logf("final backlog %d arrivals (%d bytes), run allocated %d bytes, construction %d", backlog, backlog*16, run, construction)
	if budget := 2*uint64(backlog)*16 + construction; run > budget {
		t.Fatalf("saturated run allocated %d bytes for a final backlog of %d arrivals (%d bytes at 16 B each); budget is twice that plus the %d bytes of construction",
			run, backlog, backlog*16, construction)
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
