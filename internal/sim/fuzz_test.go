package sim_test

import (
	"bytes"
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
// virtual-channel and wholeness invariant through load and drain. A twin
// restored mid-load from the network's snapshot runs beside it under a
// sanitizer of its own, which must reach the same verdict from the
// restore cycle on.
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
		nets, sans := []*sim.Network{net}, []*check.Sanitizer{s}
		for i := 0; i < 300; i++ {
			if i == 150 {
				var snap bytes.Buffer
				if err := net.Snapshot(&snap); err != nil {
					t.Fatal(err)
				}
				twinAlg, err := routing.NewFlatFlyAlgorithm(algs[int(algSel)%len(algs)], ff)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := sim.Restore(&snap, ff.Graph(), twinAlg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim.MustInstall(t, twin, traffic.NewUniform(twin.NumNodes()))
				nets, sans = append(nets, twin), append(sans, check.Attach(twin, check.Config{}))
			}
			for _, n := range nets {
				sim.MustGenerate(t, n, load)
				n.Step()
			}
		}
		for _, n := range nets {
			for i := 0; i < 20000 && !n.Quiescent(); i++ {
				n.Step()
			}
		}
		for i, n := range nets {
			if !n.Quiescent() {
				t.Fatalf("network %d failed to drain (k=%d n=%d alg=%s load=%.2f pkt=%d speedup=%d buf=%d)",
					i, ks, ns, alg.Name(), load, ps, cfg.Speedup, cfg.BufPerPort)
			}
			if err := sans[i].Finalize(); err != nil {
				t.Fatalf("sanitizer %d tripped (k=%d n=%d alg=%s load=%.2f pkt=%d speedup=%d buf=%d): %v",
					i, ks, ns, alg.Name(), load, ps, cfg.Speedup, cfg.BufPerPort, err)
			}
		}
	})
}
