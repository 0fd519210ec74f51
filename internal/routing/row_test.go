package routing

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"flatnet/internal/rng"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// refPicker is the tie-breaking arg-min as it was written before the row
// helper existed: one switch, the draw in line. offerRow, and the
// offer/tie pair it is built from, must pick what it picks and leave the
// random stream where it leaves it.
type refPicker struct {
	rng             *rng.Source
	best, arg, ties int
}

func (m *refPicker) offer(cost, arg int) {
	switch {
	case cost < m.best:
		m.best, m.arg, m.ties = cost, arg, 1
	case cost == m.best:
		m.ties++
		if m.rng.Intn(m.ties) == 0 {
			m.arg = arg
		}
	}
}

// checkOfferRow runs offerRow and the reference loop over row[lo:hi]
// without skip, both after offering stay (a cost with argument -1, CLOS
// AD's "stay" candidate; negative for none), from the same seed.
func checkOfferRow(t *testing.T, name string, row []int32, lo, hi, skip, stay int, seed uint64) {
	t.Helper()
	got := minPicker{rng: rng.New(seed), best: 1 << 30, bestArg: -1}
	want := refPicker{rng: rng.New(seed), best: 1 << 30, arg: -1}
	cost := costOnly{best: 1 << 30}
	wantCost := 1 << 30
	if stay >= 0 {
		got.offer(stay, -1)
		want.offer(stay, -1)
	}
	got.offerRow(row, lo, hi, skip)
	cost.offerRow(row, lo, hi, skip)
	for p := lo; p < hi; p++ {
		if p == skip {
			continue
		}
		want.offer(int(row[p]), p)
		if int(row[p]) < wantCost {
			wantCost = int(row[p])
		}
	}
	if got.best != want.best || got.bestArg != want.arg || got.ties != want.ties {
		t.Errorf("%s: offerRow picked (cost %d, port %d, ties %d), reference (cost %d, port %d, ties %d)",
			name, got.best, got.bestArg, got.ties, want.best, want.arg, want.ties)
	}
	if got.rng.State() != want.rng.State() {
		t.Errorf("%s: offerRow left the random stream in a different state than the reference loop", name)
	}
	if cost.best != wantCost {
		t.Errorf("%s: cost-only offerRow = %d, reference minimum %d", name, cost.best, wantCost)
	}
}

// TestOfferRowMatchesOfferLoop is the row helper's contract: over any
// window of a queue-estimate row it is the per-port offer loop — same
// port, same cost, and the same Intn draws, so the router's stream (which
// the golden corpus and every snapshot pin) cannot tell the two apart.
func TestOfferRowMatchesOfferLoop(t *testing.T) {
	decreasing := make([]int32, 32)
	for i := range decreasing {
		decreasing[i] = int32(len(decreasing) - i)
	}
	edges := []struct {
		name               string
		row                []int32
		lo, hi, skip, stay int
	}{
		{"all equal", make([]int32, 32), 0, 32, -1, -1},
		{"all equal, skip inside", make([]int32, 32), 0, 32, 7, -1},
		{"strictly decreasing", decreasing, 0, 32, -1, -1},
		{"skip at 0", []int32{0, 3, 3, 1, 1}, 0, 5, 0, -1},
		{"skip at k-1", []int32{2, 2, 5, 2, 0}, 0, 5, 4, -1},
		{"skip outside the window", []int32{4, 1, 1, 9}, 1, 3, 0, -1},
		{"k = 2, skip first", []int32{0, 6}, 0, 2, 0, -1},
		{"k = 2, skip second", []int32{6, 0}, 0, 2, 1, -1},
		{"window inside a longer row", []int32{0, 0, 5, 5, 5, 0, 0}, 2, 5, 3, -1},
		{"empty window", []int32{1, 2, 3}, 2, 2, -1, -1},
		{"stay ties with the minimum", []int32{4, 2, 7, 2}, 0, 4, 0, 2},
		{"stay beats every port", []int32{4, 2, 7, 2}, 0, 4, -1, 1},
		{"stay loses", []int32{4, 2, 7, 2}, 0, 4, -1, 3},
	}
	for _, e := range edges {
		for seed := uint64(1); seed <= 8; seed++ {
			checkOfferRow(t, e.name, e.row, e.lo, e.hi, e.skip, e.stay, seed)
		}
	}

	// Random rows: few distinct values so ties, and with them draws, are
	// common; windows, skips and stay costs vary.
	gen := rng.New(0xf1a7)
	for trial := 0; trial < 2000; trial++ {
		row := make([]int32, 2+gen.Intn(70))
		spread := 1 + gen.Intn(6)
		for i := range row {
			row[i] = int32(gen.Intn(spread))
		}
		lo := gen.Intn(len(row))
		hi := lo + gen.Intn(len(row)-lo+1)
		skip := gen.Intn(len(row)+1) - 1
		stay := gen.Intn(spread+1) - 1
		checkOfferRow(t, "random row", row, lo, hi, skip, stay, uint64(trial))
	}
}

// TestMultiplicityDeliveryDigests pins runs the golden corpus does not
// have: CLOS AD and UGAL-S on 2-flats with doubled channels (Fig. 14a),
// where every candidate digit is itself a random pick among the copies
// and the draws nest. The digests are of the whole delivery stream, and
// were computed before queue estimates moved into per-router rows.
func TestMultiplicityDeliveryDigests(t *testing.T) {
	for _, c := range []struct {
		k    int
		alg  string
		want uint64
	}{
		{4, "clos", 0xda69ccdc8b71a82d},
		{4, "ugal-s", 0x796c6546e20e15fa},
		{8, "clos", 0x54643c358975694c},
		{8, "ugal-s", 0xe08ae3e01286228a},
	} {
		f, err := topo.NewFlatFly(c.k, 2, topo.WithMultiplicity(2))
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewFlatFlyAlgorithm(c.alg, f)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sim.New(f.Graph(), alg, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		setPattern(t, net, traffic.NewWorstCase(f.K, f.NumRouters))
		h := fnv.New64a()
		delivered := 0
		net.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, cycle int64) {
			delivered++
			binary.Write(h, binary.LittleEndian, [5]int64{cycle, int64(p.Src), int64(p.Dst), p.InjectCycle, int64(p.Hops)})
		}})
		for i := 0; i < 600; i++ {
			generate(t, net, 0.5)
			net.Step()
		}
		if delivered < 1000 {
			t.Fatalf("%d-ary 2-flat x2 %s: only %d packets delivered", c.k, c.alg, delivered)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%d-ary 2-flat x2 %s: delivery digest %#016x, pinned %#016x", c.k, c.alg, got, c.want)
		}
	}
}
