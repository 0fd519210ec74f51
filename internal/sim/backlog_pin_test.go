package sim_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata/pinned_backlog_k4.snap from spilledBacklogRun")

// Pinned results of spilledBacklogRun. Only a deliberate change to the
// simulated behaviour may move them; a change to how a source stores its
// backlog may not.
const (
	pinnedBacklogDigest     = "ebbde76962f0bd34"
	pinnedBacklogDeliveries = 2199
)

// spilledBacklogRun drives a 4-ary 2-flat (MIN AD, two-flit packets) at
// 20 % uniform load and piles long backlogs on top of it, twice: every
// source takes a same-cycle burst well over 64 arrivals, source 3 a run
// of traced arrivals due up to 100 cycles later, and source 5 two
// transfers behind its burst. Between the waves every source drains to
// empty (the test checks), so each backlog both fills and refills. At
// cycle 660 the second wave is still queued; the run snapshots there and
// returns the snapshot bytes with the network at that cycle.
func spilledBacklogRun(t *testing.T) (*sim.Network, []byte, *topo.FlatFly, sim.Algorithm, sim.Config) {
	t.Helper()
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("min", ff)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Seed: 17, BufPerPort: 8, PacketSize: 2}
	n, err := sim.New(ff.Graph(), alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
	n.SetMeasurementWindow(100, 900)
	wave := func(burst, traced int) {
		c := n.Cycle()
		n.SeedBatch(burst)
		for i := 0; i < traced; i++ {
			if err := n.InjectAt(3, c+20+int64(i)/2, topo.NodeID((i*5+1)%n.NumNodes())); err != nil {
				t.Fatal(err)
			}
		}
		for _, x := range []struct{ dst, packets int }{{9, 40}, {2, 30}} {
			if _, err := n.StartTransfer(5, topo.NodeID(x.dst), x.packets); err != nil {
				t.Fatal(err)
			}
		}
	}
	drained := false
	for n.Cycle() < 660 {
		switch n.Cycle() {
		case 20:
			wave(70, 80)
		case 640:
			if !drained {
				t.Fatal("the first wave never drained: the scenario no longer refills a backlog")
			}
			wave(120, 160)
		}
		sim.MustGenerate(t, n, 0.2)
		n.Step()
		if c := n.Cycle(); c > 100 && c < 640 && n.Backlog() == 0 {
			drained = true
		}
	}
	if b := n.Backlog(); b < int64(n.NumNodes())*100 {
		t.Fatalf("backlog of %d arrivals at the snapshot; every source should hold over 64", b)
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return n, buf.Bytes(), ff, alg, cfg
}

// deliveryDigest steps n for the given cycles and returns an FNV-64a
// digest of every delivery (cycle, packet, endpoints, latency) and their
// count.
func deliveryDigest(t *testing.T, n *sim.Network, cycles int) (string, int) {
	t.Helper()
	h := fnv.New64a()
	count := 0
	detach := n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, c int64) {
		var b [40]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(c))
		binary.LittleEndian.PutUint64(b[8:], uint64(p.ID))
		binary.LittleEndian.PutUint64(b[16:], uint64(p.Src))
		binary.LittleEndian.PutUint64(b[24:], uint64(p.Dst))
		binary.LittleEndian.PutUint64(b[32:], uint64(c-p.InjectCycle))
		h.Write(b[:])
		count++
	}})
	defer detach()
	for i := 0; i < cycles; i++ {
		sim.MustGenerate(t, n, 0.2)
		n.Step()
	}
	return fmt.Sprintf("%016x", h.Sum64()), count
}

// TestSpilledBacklogPinned holds long source backlogs to a pinned
// snapshot file and a pinned digest of the 400 cycles after it, on the
// straight run and on its restored twin: however a source stores the
// arrivals it queues, it must snapshot the same bytes and release the
// same packets at the same cycles.
func TestSpilledBacklogPinned(t *testing.T) {
	n, snap, ff, alg, cfg := spilledBacklogRun(t)
	defer n.Close()
	path := filepath.Join("testdata", "pinned_backlog_k4.snap")
	if *update {
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, want) {
		t.Fatalf("snapshot bytes drifted from the pinned file (%d vs %d bytes)", len(snap), len(want))
	}
	r, err := sim.Restore(bytes.NewReader(snap), ff.Graph(), alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sim.MustInstall(t, r, traffic.NewUniform(r.NumNodes()))
	for _, c := range []struct {
		name string
		n    *sim.Network
	}{{"straight", n}, {"restored", r}} {
		digest, count := deliveryDigest(t, c.n, 400)
		if digest != pinnedBacklogDigest || count != pinnedBacklogDeliveries {
			t.Errorf("%s run: %d deliveries, digest %s; pinned %d, %s", c.name, count, digest, pinnedBacklogDeliveries, pinnedBacklogDigest)
		}
	}
}
