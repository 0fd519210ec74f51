package traffic

import (
	"math"
	"testing"

	"flatnet/internal/rng"
	"flatnet/internal/topo"
)

// TestSourceProperty holds every registry source to the Source contract:
// destinations stay in [0, Nodes) and the realized injection rate tracks
// the declared offered load. 16 nodes x 20k cycles at load 0.3 gives a
// binomial standard deviation of ~0.0008 on the rate, so a 3% relative
// tolerance is ~100 sigma of headroom against flakes while still
// catching any systematic rate error.
func TestSourceProperty(t *testing.T) {
	const (
		nodes  = 16
		cycles = 20000
		load   = 0.3
		flits  = 2
	)
	ctx := BuildCtx{Nodes: nodes, Seed: 9, Concentration: 4}
	master := rng.New(101)
	for _, name := range Names() {
		src, err := BuildSource(name, ctx)
		if err != nil {
			t.Fatalf("BuildSource(%q): %v", name, err)
		}
		rs := make([]*rng.Source, nodes)
		for i := range rs {
			rs[i] = rng.New(master.Uint64())
		}
		total := 0
		for c := 0; c < cycles; c++ {
			for i := 0; i < nodes; i++ {
				k := src.Arrivals(topo.NodeID(i), load, flits, rs[i])
				if k < 0 {
					t.Fatalf("%s: Arrivals < 0", name)
				}
				for j := 0; j < k; j++ {
					total++
					d := src.Dest(topo.NodeID(i), rs[i])
					if d < 0 || int(d) >= nodes {
						t.Fatalf("%s: Dest(%d) = %d out of [0,%d)", name, i, d, nodes)
					}
				}
			}
		}
		want := load / flits // packets per node per cycle
		got := float64(total) / (nodes * cycles)
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("%s: realized packet rate %.5f, want %.5f within 3%%", name, got, want)
		}
	}
}

// TestOnOffRateAndState checks the bursty source: the long-run average
// rate matches the offered load even though the instantaneous rate
// alternates between 0 and peak, and the per-node modulation state
// round-trips through State/SetState so a restored source replays the
// identical arrival sequence.
func TestOnOffRateAndState(t *testing.T) {
	const (
		nodes  = 8
		cycles = 40000
		load   = 0.2
		peak   = 0.8
		burst  = 10.0
	)
	src, err := NewOnOff(NewUniform(nodes), peak, burst)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ValidateLoad(peak + 0.1); err == nil {
		t.Fatal("ValidateLoad accepted load > peak")
	}
	master := rng.New(77)
	rs := make([]*rng.Source, nodes)
	for i := range rs {
		rs[i] = rng.New(master.Uint64())
	}
	step := func(s Source) []int {
		out := make([]int, nodes)
		for i := 0; i < nodes; i++ {
			out[i] = s.Arrivals(topo.NodeID(i), load, 1, rs[i])
		}
		return out
	}
	total := 0
	for c := 0; c < cycles; c++ {
		for _, k := range step(src) {
			total += k
		}
	}
	got := float64(total) / (nodes * cycles)
	if math.Abs(got-load) > 0.05*load {
		t.Errorf("on/off realized rate %.5f, want %.5f within 5%%", got, load)
	}

	// Snapshot the workload and RNG state, run ahead, then restore both
	// and replay: the arrival sequences must match exactly.
	blob, err := src.State()
	if err != nil {
		t.Fatal(err)
	}
	rngStates := make([][4]uint64, nodes)
	for i, r := range rs {
		rngStates[i] = r.State()
	}
	var ahead [][]int
	for c := 0; c < 200; c++ {
		ahead = append(ahead, step(src))
	}
	restored, err := NewOnOff(NewUniform(nodes), peak, burst)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.SetState(blob); err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		r.SetState(rngStates[i])
	}
	for c, want := range ahead {
		got := step(restored)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replay diverged at cycle %d node %d: got %d, want %d", c, i, got[i], want[i])
			}
		}
	}

	// Corrupt state is rejected; nil resets to all-OFF.
	if err := restored.SetState([]byte{2}); err == nil {
		t.Fatal("SetState accepted a corrupt byte")
	}
	if err := restored.SetState(nil); err != nil {
		t.Fatal(err)
	}
	st, _ := restored.State()
	for i, b := range st {
		if b != 0 {
			t.Fatalf("node %d still ON after reset", i)
		}
	}
}

// TestStatelessRejectsState pins the Stateless helper contract.
func TestStatelessRejectsState(t *testing.T) {
	var s Stateless
	if b, err := s.State(); b != nil || err != nil {
		t.Fatalf("State() = %v, %v", b, err)
	}
	if err := s.SetState(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetState([]byte{1}); err == nil {
		t.Fatal("stateless source accepted state bytes")
	}
}
