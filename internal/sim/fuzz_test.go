package sim_test

import (
	"testing"

	"flatnet/internal/check"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// FuzzInvariants drives fuzzed simulator configurations — topology
// shape, buffering, switch speedup, packet size, algorithm, load and
// seed — under the internal/check sanitizer: whatever corner the fuzzer
// finds, a clean simulator must hold every conservation, credit,
// virtual-channel and wholeness invariant through load and drain.
func FuzzInvariants(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(0), uint8(16), uint8(0), uint8(1), uint8(40), uint64(1))
	f.Add(uint8(2), uint8(3), uint8(2), uint8(8), uint8(1), uint8(4), uint8(80), uint64(2))
	f.Add(uint8(3), uint8(2), uint8(4), uint8(4), uint8(2), uint8(6), uint8(60), uint64(3))
	f.Add(uint8(4), uint8(3), uint8(1), uint8(32), uint8(0), uint8(2), uint8(90), uint64(4))
	f.Fuzz(func(t *testing.T, k, n, algSel, buf, speedup, pktSize, loadPct uint8, seed uint64) {
		// Clamp the fuzzed bytes into a valid but adversarial corner of
		// the configuration space; keep networks tiny so each exec is fast.
		ks := 2 + int(k)%3 // 2..4
		ns := 2 + int(n)%2 // 2..3
		ps := 1 + int(pktSize)%6
		cfg := sim.Config{
			Seed:       seed,
			BufPerPort: ps * (1 + int(buf)%4), // >= one packet per VC after the VC split
			Speedup:    int(speedup) % 3,      // 0 (unlimited), 1, 2
			PacketSize: ps,
		}
		ff, err := topo.NewFlatFly(ks, ns)
		if err != nil {
			t.Fatal(err)
		}
		algs := []string{"min", "val", "ugal", "ugal-s", "clos"}
		alg, err := routing.NewFlatFlyAlgorithm(algs[int(algSel)%len(algs)], ff)
		if err != nil {
			t.Fatal(err)
		}
		// Per-VC depth must be >= 1 flit.
		if cfg.BufPerPort < alg.NumVCs() {
			cfg.BufPerPort = alg.NumVCs() * ps
		}
		net, err := sim.New(ff.Graph(), alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.MustInstall(t, net, traffic.NewUniform(net.NumNodes()))
		s := check.Attach(net, check.Config{})
		load := float64(int(loadPct)%101) / 100
		for i := 0; i < 300; i++ {
			sim.MustGenerate(t, net, load)
			net.Step()
		}
		for i := 0; i < 20000 && !net.Quiescent(); i++ {
			net.Step()
		}
		if !net.Quiescent() {
			t.Fatalf("network failed to drain (k=%d n=%d alg=%s load=%.2f pkt=%d speedup=%d buf=%d)",
				ks, ns, alg.Name(), load, ps, cfg.Speedup, cfg.BufPerPort)
		}
		if err := s.Finalize(); err != nil {
			t.Fatalf("sanitizer tripped (k=%d n=%d alg=%s load=%.2f pkt=%d speedup=%d buf=%d): %v",
				ks, ns, alg.Name(), load, ps, cfg.Speedup, cfg.BufPerPort, err)
		}
	})
}
