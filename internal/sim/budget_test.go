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

// TestRestoreAllocBudget holds Restore to a few thousand heap objects on
// the network BenchmarkSnapshotRestore measures (the warmed 32-ary
// 2-flat under CLOS AD at 50 % uniform load). What is left is sim.New's
// slabs, one Packet per live packet and the calendar lists; decoding
// itself allocates nothing. (A Reader that took each varint byte through
// io.ReadFull made this 92 000.)
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
	if allocs > 8000 {
		t.Fatalf("Restore of a %d-byte snapshot allocates %.0f objects, budget 8000", buf.Len(), allocs)
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
	if _, err := n.StartTransfer(3, 12, 4); err != nil {
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
	if n.Backlog() < 4 || n.PendingTransfers() != 1 {
		t.Fatalf("scenario holds backlog %d, %d transfer packets in flight; want queued transfer arrivals and one in flight", n.Backlog(), n.PendingTransfers())
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
