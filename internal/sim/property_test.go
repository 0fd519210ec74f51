package sim

import (
	"testing"
	"testing/quick"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// TestPropertyConservationAndDrain drives randomized small networks —
// random ary, load, seed and packet size — and checks the simulator's
// core invariants: flits are conserved at every sampled cycle, the
// network drains completely once injection stops, and every packet
// arrives at its addressed destination.
func TestPropertyConservationAndDrain(t *testing.T) {
	check := func(seed uint64, kSel, loadSel, sizeSel uint8) bool {
		k := 2 + int(kSel)%5                 // 2..6
		load := 0.1 + float64(loadSel%8)*0.1 // 0.1..0.8
		size := 1 + int(sizeSel)%3           // 1..3
		f, err := topo.NewFlatFly(k, 2)
		if err != nil {
			return false
		}
		cfg := Config{Seed: seed, BufPerPort: 16, PacketSize: size}
		n, err := New(f.Graph(), &minimalAlg{f}, cfg)
		if err != nil {
			return false
		}
		MustInstall(t, n, traffic.NewUniform(f.NumNodes))
		misdelivered := false
		n.AttachHooks(&Hooks{Deliver: func(p *Packet, _ int64) {
			if p.Dst < 0 || int(p.Dst) >= f.NumNodes || p.Hops < f.MinHops(f.RouterOf(p.Src), f.RouterOf(p.Dst)) {
				misdelivered = true
			}
		}})
		for i := 0; i < 300; i++ {
			MustGenerate(t, n, load)
			n.Step()
			if i%50 == 0 {
				fi, fd := n.FlitTotals()
				buffered, inFlight := n.Inventory()
				if fi != fd+int64(buffered)+int64(inFlight) {
					return false
				}
			}
		}
		// Drain.
		for i := 0; i < 3000; i++ {
			n.Step()
			if b, fl := n.Inventory(); b == 0 && fl == 0 && n.Backlog() == 0 {
				break
			}
		}
		pi, pd := n.Totals()
		fi, fd := n.FlitTotals()
		return !misdelivered && pi == pd && fi == fd && fd == int64(size)*pd
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterministicReplay verifies that any (seed, load)
// combination replays identically.
func TestPropertyDeterministicReplay(t *testing.T) {
	f, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64, load float64) (int64, int64) {
		n, err := New(f.Graph(), &minimalAlg{f}, Config{Seed: seed, BufPerPort: 16})
		if err != nil {
			t.Fatal(err)
		}
		MustInstall(t, n, traffic.NewUniform(f.NumNodes))
		var latSum int64
		n.AttachHooks(&Hooks{Deliver: func(p *Packet, c int64) { latSum += c - p.InjectCycle }})
		for i := 0; i < 200; i++ {
			MustGenerate(t, n, load)
			n.Step()
		}
		_, d := n.Totals()
		return d, latSum
	}
	check := func(seed uint64, loadSel uint8) bool {
		load := 0.1 + float64(loadSel%9)*0.1
		d1, l1 := run(seed, load)
		d2, l2 := run(seed, load)
		return d1 == d2 && l1 == l2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
