package sim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// snapCounters is the bookkeeping surface compared between a
// straight-through run and its restored twin.
type snapCounters struct {
	inj, del, fin, fdel, mc, md int64
	cycle                       int64
}

func readCounters(n *sim.Network) snapCounters {
	var c snapCounters
	c.inj, c.del = n.Totals()
	c.fin, c.fdel = n.FlitTotals()
	c.mc, c.md = n.MeasuredCounts()
	c.cycle = n.Cycle()
	return c
}

func recordInto(out *[]delivery) func(p *sim.Packet, cycle int64) {
	return func(p *sim.Packet, cycle int64) {
		*out = append(*out, delivery{
			cycle: cycle, src: int(p.Src), dst: int(p.Dst),
			inject: p.InjectCycle, hops: p.Hops,
		})
	}
}

// runSnapshotPair runs one network straight through (snapshotting the
// moment warm-up ends) and a twin restored from that snapshot, then
// requires the post-snapshot delivery streams, counters and re-snapshot
// bytes to agree exactly.
func runSnapshotPair(t *testing.T, ff *topo.FlatFly, algName string, cfg sim.Config, load float64, warm, tail int) {
	t.Helper()
	label := algName

	newAlg := func() sim.Algorithm {
		alg, err := routing.NewFlatFlyAlgorithm(algName, ff)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	alg := newAlg()
	if cfg.BufPerPort < alg.NumVCs()*cfg.PacketSize {
		cfg.BufPerPort = alg.NumVCs() * cfg.PacketSize
	}
	measStart, measEnd := int64(warm), int64(warm+tail/2)

	// Reference: run straight through, snapshotting at the warm point.
	a, err := sim.New(ff.Graph(), alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sim.MustInstall(t, a, traffic.NewUniform(a.NumNodes()))
	a.SetMeasurementWindow(measStart, measEnd)
	var aTail []delivery
	a.AttachHooks(&sim.Hooks{Deliver: recordInto(&aTail)})
	for i := 0; i < warm; i++ {
		sim.MustGenerate(t, a, load)
		a.Step()
	}
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatalf("%s: snapshot: %v", label, err)
	}
	aTail = aTail[:0]
	for i := 0; i < tail; i++ {
		sim.MustGenerate(t, a, load)
		a.Step()
	}
	for i := 0; i < 20000 && !a.Quiescent(); i++ {
		a.Step()
	}
	if !a.Quiescent() {
		t.Fatalf("%s: reference did not drain", label)
	}
	aC := readCounters(a)

	// Twin: restore, then run the identical post-snapshot schedule.
	b, err := sim.Restore(bytes.NewReader(buf.Bytes()), ff.Graph(), newAlg(), cfg)
	if err != nil {
		t.Fatalf("%s: restore: %v", label, err)
	}
	defer b.Close()
	var resnap bytes.Buffer
	if err := b.Snapshot(&resnap); err != nil {
		t.Fatalf("%s: re-snapshot: %v", label, err)
	}
	if !bytes.Equal(buf.Bytes(), resnap.Bytes()) {
		t.Fatalf("%s: restore-then-snapshot is not byte-identical (%d vs %d bytes)",
			label, buf.Len(), resnap.Len())
	}
	sim.MustInstall(t, b, traffic.NewUniform(b.NumNodes()))
	var bTail []delivery
	b.AttachHooks(&sim.Hooks{Deliver: recordInto(&bTail)})
	for i := 0; i < tail; i++ {
		sim.MustGenerate(t, b, load)
		b.Step()
	}
	for i := 0; i < 20000 && !b.Quiescent(); i++ {
		b.Step()
	}
	if !b.Quiescent() {
		t.Fatalf("%s: restored network did not drain", label)
	}
	diffDeliveries(t, aTail, bTail, label)
	if bC := readCounters(b); bC != aC {
		t.Fatalf("%s: counters diverged:\n  straight: %+v\n  restored: %+v", label, aC, bC)
	}
}

// TestSnapshotRoundTrip is the tentpole guarantee: restore-then-run is
// bit-identical to run-straight-through across router configurations
// (multi-flit wormhole, age arbitration, pipelined routers).
func TestSnapshotRoundTrip(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []struct {
		name string
		alg  string
		cfg  sim.Config
	}{
		{"default", "ugal-s", sim.DefaultConfig()},
		{"multiflit", "clos", sim.Config{Seed: 3, BufPerPort: 32, PacketSize: 4}},
		{"age", "min", sim.Config{Seed: 5, BufPerPort: 16, PacketSize: 2, AgeArbiter: true}},
		{"pipelined", "val", sim.Config{Seed: 9, BufPerPort: 32, RouterDelay: 2}},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			runSnapshotPair(t, ff, c.alg, c.cfg, 0.4, 150, 150)
		})
	}
}

// TestSnapshotWithTransfersAndBursts covers the harder state: bursty
// (two-state Markov) injection mid-burst, an in-flight StartTransfer
// burst, and source backlog, all captured and resumed exactly.
func TestSnapshotWithTransfersAndBursts(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("ugal", ff)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.PacketSize = 2

	burst := func(n *sim.Network) {
		src, err := traffic.NewOnOff(traffic.NewUniform(n.NumNodes()), 0.8, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SetSource(src); err != nil {
			t.Fatal(err)
		}
	}
	run := func(n *sim.Network, cycles int, out *[]delivery) {
		for i := 0; i < cycles; i++ {
			if err := n.Generate(0.3); err != nil {
				t.Fatal(err)
			}
			n.Step()
		}
	}

	a, err := sim.New(ff.Graph(), alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	burst(a)
	var aTail []delivery
	a.AttachHooks(&sim.Hooks{Deliver: recordInto(&aTail)})
	run(a, 100, &aTail)
	t1, err := a.StartTransfer(0, 13, 6)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.StartTransfer(7, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	run(a, 3, &aTail) // leave the transfers mid-flight
	if t1.Done() && t2.Done() {
		t.Fatal("expected transfer packets in flight or backlogged at the snapshot")
	}
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	aTail = aTail[:0]
	run(a, 200, &aTail)

	alg2, err := routing.NewFlatFlyAlgorithm("ugal", ff)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Restore(bytes.NewReader(buf.Bytes()), ff.Graph(), alg2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// SetSource applies the snapshot's stashed per-node on/off state, so
	// the clone resumes mid-burst exactly where a left off.
	burst(b)
	var bTail []delivery
	b.AttachHooks(&sim.Hooks{Deliver: recordInto(&bTail)})
	run(b, 200, &bTail)
	diffDeliveries(t, aTail, bTail, "transfers+bursts")
}

// TestSnapshotRejects pins the refusal surface: instrumented or closed
// networks cannot snapshot, and mismatched restore targets are errors.
func TestSnapshotRejects(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("min", ff)
	if err != nil {
		t.Fatal(err)
	}

	// Observers are not simulation state: a probed network snapshots to
	// the bytes of its unprobed twin.
	probed, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer probed.Close()
	probed.AttachProbes(sim.ProbeConfig{Stride: 4})
	n, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf, probedBuf bytes.Buffer
	for _, net := range []*sim.Network{n, probed} {
		sim.MustInstall(t, net, traffic.NewUniform(net.NumNodes()))
		for i := 0; i < 50; i++ {
			sim.MustGenerate(t, net, 0.3)
			net.Step()
		}
	}
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := probed.Snapshot(&probedBuf); err != nil {
		t.Fatal(err)
	}
	if probed.Probes().Grants == 0 || !bytes.Equal(buf.Bytes(), probedBuf.Bytes()) {
		t.Fatalf("probed snapshot (%d grants probed) differs from its unprobed twin's", probed.Probes().Grants)
	}
	n.Close()
	if err := n.Snapshot(&bytes.Buffer{}); err == nil {
		t.Fatal("snapshot of a closed network should fail")
	}

	// Wrong seed.
	badCfg := sim.DefaultConfig()
	badCfg.Seed = 999
	if _, err := sim.Restore(bytes.NewReader(buf.Bytes()), ff.Graph(), alg, badCfg); err == nil {
		t.Fatal("restore with a different seed should fail")
	}
	// Wrong algorithm.
	val, err := routing.NewFlatFlyAlgorithm("val", ff)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Restore(bytes.NewReader(buf.Bytes()), ff.Graph(), val, sim.DefaultConfig()); err == nil {
		t.Fatal("restore with a different algorithm should fail")
	}
	// Wrong topology.
	ff2, err := topo.NewFlatFly(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg2, err := routing.NewFlatFlyAlgorithm("min", ff2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Restore(bytes.NewReader(buf.Bytes()), ff2.Graph(), alg2, sim.DefaultConfig()); err == nil {
		t.Fatal("restore onto a different topology should fail")
	}
}

// TestSnapshotCorruptionRobust requires every single-byte corruption and
// every truncation of a valid snapshot to surface as an error — never a
// panic, never a silently-wrong network.
func TestSnapshotCorruptionRobust(t *testing.T) {
	ff, err := topo.NewFlatFly(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("ugal-s", ff)
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
	for i := 0; i < 80; i++ {
		sim.MustGenerate(t, n, 0.5)
		n.Step()
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := sim.Restore(bytes.NewReader(mut), ff.Graph(), alg, cfg); err == nil {
			t.Fatalf("corrupting byte %d of %d went undetected", i, len(data))
		}
	}
	for l := 0; l < len(data); l += 7 {
		if _, err := sim.Restore(bytes.NewReader(data[:l]), ff.Graph(), alg, cfg); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", l, len(data))
		}
	}
}

// FuzzSnapshotRoundTrip fuzzes simulator configurations and requires
// (1) restore-then-run to match run-straight-through exactly, and
// (2) arbitrarily corrupted snapshot bytes to fail with an error
// instead of panicking or hanging.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint64(2), uint8(80), uint8(3), uint8(1), uint8(5), []byte{1, 2, 3})
	f.Add(uint64(3), uint8(60), uint8(1), uint8(2), uint8(7), []byte{0xff, 0x80})
	// The fourth argument once chose worker counts; it stays so the
	// committed corpus keeps its shape.
	f.Fuzz(func(t *testing.T, seed uint64, loadPct, algSel, _, extra uint8, corrupt []byte) {
		ff, err := topo.NewFlatFly(2+int(extra)%2, 2)
		if err != nil {
			t.Fatal(err)
		}
		algs := []string{"min", "val", "ugal", "ugal-s", "clos"}
		algName := algs[int(algSel)%len(algs)]
		ps := 1 + int(extra>>2)%3
		cfg := sim.Config{
			Seed:        seed,
			BufPerPort:  8 * ps,
			PacketSize:  ps,
			AgeArbiter:  extra&1 != 0,
			RouterDelay: int(extra>>1) % 2,
		}
		load := float64(int(loadPct)%101) / 100
		newAlg := func() sim.Algorithm {
			alg, err := routing.NewFlatFlyAlgorithm(algName, ff)
			if err != nil {
				t.Fatal(err)
			}
			return alg
		}
		alg := newAlg()
		if cfg.BufPerPort < alg.NumVCs()*cfg.PacketSize {
			cfg.BufPerPort = alg.NumVCs() * cfg.PacketSize
		}

		a, err := sim.New(ff.Graph(), alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		sim.MustInstall(t, a, traffic.NewUniform(a.NumNodes()))
		var aTail []delivery
		a.AttachHooks(&sim.Hooks{Deliver: recordInto(&aTail)})
		for i := 0; i < 60; i++ {
			sim.MustGenerate(t, a, load)
			a.Step()
		}
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		aTail = aTail[:0]
		for i := 0; i < 60; i++ {
			sim.MustGenerate(t, a, load)
			a.Step()
		}

		b, err := sim.Restore(bytes.NewReader(buf.Bytes()), ff.Graph(), newAlg(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		sim.MustInstall(t, b, traffic.NewUniform(b.NumNodes()))
		var bTail []delivery
		b.AttachHooks(&sim.Hooks{Deliver: recordInto(&bTail)})
		for i := 0; i < 60; i++ {
			sim.MustGenerate(t, b, load)
			b.Step()
		}
		diffDeliveries(t, aTail, bTail, algName)

		// Corruption robustness: apply the fuzzed (position, mask) pairs
		// and require restore to fail cleanly or succeed — never panic.
		if len(corrupt) >= 2 && buf.Len() > 0 {
			mut := append([]byte(nil), buf.Bytes()...)
			for i := 0; i+1 < len(corrupt); i += 2 {
				mut[int(corrupt[i])%len(mut)] ^= corrupt[i+1]
			}
			changed := !bytes.Equal(mut, buf.Bytes())
			c, err := sim.Restore(bytes.NewReader(mut), ff.Graph(), newAlg(), cfg)
			if err == nil {
				if !changed {
					c.Close()
				} else {
					t.Fatal("corrupted snapshot restored without error")
				}
			}
		}
	})
}

// pinnedSnapshot builds the fixed-seed network behind
// testdata/pinned_clos_k4.snap and returns its snapshot bytes: a 4-ary
// 2-flat under CLOS AD with two-flit packets, stepped to mid-load so the
// file holds buffered flits, owned VCs, staged deliveries and calendar
// slots with flit, credit and delivery events pending together.
func pinnedSnapshot(t *testing.T) []byte {
	t.Helper()
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewFlatFlyAlgorithm("clos", ff)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.New(ff.Graph(), alg, sim.Config{Seed: 11, BufPerPort: 16, PacketSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
	n.SetMeasurementWindow(100, 200)
	for i := 0; i < 200; i++ {
		sim.MustGenerate(t, n, 0.7)
		n.Step()
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotBytesPinned holds the snapshot encoding to a version-4
// file: the in-memory layout of the cycle core may change, the bytes of
// a snapshot (canonical event order included) may not without a bump of
// snapshot.Version, and the file is then regenerated from
// pinnedSnapshot's unchanged configuration.
func TestSnapshotBytesPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "pinned_clos_k4.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := pinnedSnapshot(t); !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes drifted from the pinned file (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSnapshotDigestIsPerGraph holds the memoised topology digest to its
// job: it is remembered per graph, not per shape or label, so two graphs
// that differ in a single channel latency still digest differently and a
// snapshot still refuses to restore onto the wrong one.
func TestSnapshotDigestIsPerGraph(t *testing.T) {
	build := func() *topo.FlatFly {
		ff, err := topo.NewFlatFly(4, 2, topo.WithChannelLatency(3))
		if err != nil {
			t.Fatal(err)
		}
		return ff
	}
	a, same, other := build(), build(), build()
	// One inter-router channel of other is a cycle shorter. The longest
	// latency, and with it every other field of the snapshot's header,
	// is unchanged: only the digest can tell the graphs apart.
	shortened := false
	for p := range other.Graph().Routers[2].Out {
		if op := &other.Graph().Routers[2].Out[p]; op.Kind == topo.Network && !shortened {
			op.Latency, shortened = 2, true
		}
	}
	if !shortened {
		t.Fatal("router 2 has no network channel")
	}
	da := a.Graph().Digest()
	if da != a.Graph().Digest() || da != same.Graph().Digest() {
		t.Fatal("digest is not a function of graph structure")
	}
	if da == other.Graph().Digest() {
		t.Fatal("graphs differing in one channel latency share a digest")
	}

	alg := func(ff *topo.FlatFly) sim.Algorithm {
		alg, err := routing.NewFlatFlyAlgorithm("min", ff)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	n, err := sim.New(a.Graph(), alg(a), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sim.MustInstall(t, n, traffic.NewUniform(n.NumNodes()))
	for i := 0; i < 30; i++ {
		sim.MustGenerate(t, n, 0.3)
		n.Step()
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if r, err := sim.Restore(bytes.NewReader(buf.Bytes()), same.Graph(), alg(same), sim.DefaultConfig()); err != nil {
		t.Fatalf("restore onto an identical graph: %v", err)
	} else {
		r.Close()
	}
	_, err = sim.Restore(bytes.NewReader(buf.Bytes()), other.Graph(), alg(other), sim.DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "topology digest") {
		t.Fatalf("restore onto a graph with one shorter channel: %v, want a topology digest mismatch", err)
	}
}
