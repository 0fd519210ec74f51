package traffic

import (
	"testing"
	"testing/quick"

	"flatnet/internal/rng"
	"flatnet/internal/topo"
)

func TestUniformRange(t *testing.T) {
	u := NewUniform(64)
	r := rng.New(1)
	for src := topo.NodeID(0); src < 64; src++ {
		for i := 0; i < 200; i++ {
			d := u.Dest(src, r)
			if d < 0 || int(d) >= 64 {
				t.Fatalf("uniform destination %d out of range", d)
			}
		}
	}
}

func TestUniformCoversAll(t *testing.T) {
	u := NewUniform(16)
	r := rng.New(2)
	seen := make(map[topo.NodeID]bool)
	for i := 0; i < 2000; i++ {
		seen[u.Dest(0, r)] = true
	}
	if len(seen) != 16 {
		t.Fatalf("uniform from node 0 reached %d destinations, want 16 (self included)", len(seen))
	}
}

func TestWorstCaseGroup(t *testing.T) {
	// §3.2: node attached to router R_i sends to a random node attached to
	// router R_{i+1}.
	w := NewWorstCase(32, 32)
	r := rng.New(3)
	for src := topo.NodeID(0); src < 1024; src += 17 {
		g := int(src) / 32
		for i := 0; i < 50; i++ {
			d := w.Dest(src, r)
			if int(d)/32 != (g+1)%32 {
				t.Fatalf("src %d (group %d) sent to %d (group %d)", src, g, d, int(d)/32)
			}
		}
	}
}

func TestWorstCaseWrapsAround(t *testing.T) {
	w := NewWorstCase(4, 4)
	r := rng.New(4)
	d := w.Dest(topo.NodeID(15), r) // last group -> group 0
	if int(d)/4 != 0 {
		t.Fatalf("group 3 should wrap to group 0, got node %d", d)
	}
}

func TestBitComplementInvolution(t *testing.T) {
	b := NewBitComplement(256)
	check := func(s uint8) bool {
		src := topo.NodeID(s)
		d := b.Dest(src, nil)
		return b.Dest(d, nil) == src && int(d) == 255-int(s)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolutionAndPermutation(t *testing.T) {
	tr, err := NewTranspose(256)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[topo.NodeID]bool)
	for s := 0; s < 256; s++ {
		d := tr.Dest(topo.NodeID(s), nil)
		if tr.Dest(d, nil) != topo.NodeID(s) {
			t.Fatalf("transpose not an involution at %d", s)
		}
		seen[d] = true
	}
	if len(seen) != 256 {
		t.Fatalf("transpose covered %d nodes, want 256", len(seen))
	}
	// 0b00000001 -> 0b00010000.
	if d := tr.Dest(1, nil); d != 16 {
		t.Fatalf("transpose(1) = %d, want 16", d)
	}
	if _, err := NewTranspose(100); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewTranspose(512); err == nil {
		t.Error("odd bit count accepted")
	}
}

func TestShufflePermutation(t *testing.T) {
	s, err := NewShuffle(64)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[topo.NodeID]bool)
	for i := 0; i < 64; i++ {
		seen[s.Dest(topo.NodeID(i), nil)] = true
	}
	if len(seen) != 64 {
		t.Fatalf("shuffle covered %d, want 64", len(seen))
	}
	// 0b100000 -> 0b000001.
	if d := s.Dest(32, nil); d != 1 {
		t.Fatalf("shuffle(32) = %d, want 1", d)
	}
	if _, err := NewShuffle(63); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestTornadoHalfway(t *testing.T) {
	tor := NewTornado(4, 8)
	r := rng.New(5)
	d := tor.Dest(topo.NodeID(0), r)
	if int(d)/4 != 4 {
		t.Fatalf("tornado group 0 should target group 4, got %d", int(d)/4)
	}
	d = tor.Dest(topo.NodeID(28), r) // group 7 -> group 3
	if int(d)/4 != 3 {
		t.Fatalf("tornado group 7 should target group 3, got %d", int(d)/4)
	}
}

func TestFixed(t *testing.T) {
	f := NewFixed("rev3", []topo.NodeID{2, 1, 0})
	if f.Name() != "rev3" {
		t.Fatal("name")
	}
	for i := 0; i < 3; i++ {
		if f.Dest(topo.NodeID(i), nil) != topo.NodeID(2-i) {
			t.Fatalf("fixed table lookup wrong at %d", i)
		}
	}
}

func TestNames(t *testing.T) {
	if NewUniform(4).Name() != "uniform" {
		t.Error("uniform name")
	}
	if NewWorstCase(1, 4).Name() != "worstcase" {
		t.Error("worstcase name")
	}
	if NewBitComplement(4).Name() != "bitcomp" {
		t.Error("bitcomp name")
	}
	if NewTornado(1, 4).Name() != "tornado" {
		t.Error("tornado name")
	}
}

func TestHotspot(t *testing.T) {
	h, err := NewHotspot(64, []topo.NodeID{7}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	hits := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if h.Dest(3, r) == 7 {
			hits++
		}
	}
	rate := float64(hits) / draws
	// 50% explicit + ~1/64 from the uniform remainder.
	if rate < 0.45 || rate > 0.60 {
		t.Fatalf("hot rate = %.3f, want ~0.51", rate)
	}
	if _, err := NewHotspot(64, nil, 0.5); err == nil {
		t.Error("empty hot set accepted")
	}
	if _, err := NewHotspot(64, []topo.NodeID{99}, 0.5); err == nil {
		t.Error("out-of-range hot node accepted")
	}
	if _, err := NewHotspot(64, []topo.NodeID{0}, 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if h.Name() != "hotspot" {
		t.Error("name")
	}
}

func TestRandPerm(t *testing.T) {
	p := NewRandPerm(64, 5)
	seen := make(map[topo.NodeID]bool)
	for i := 0; i < 64; i++ {
		d := p.Dest(topo.NodeID(i), nil)
		if seen[d] {
			t.Fatalf("destination %d repeated: not a permutation", d)
		}
		seen[d] = true
	}
	// Deterministic per seed.
	q := NewRandPerm(64, 5)
	for i := 0; i < 64; i++ {
		if p.Dest(topo.NodeID(i), nil) != q.Dest(topo.NodeID(i), nil) {
			t.Fatal("same seed gave different permutations")
		}
	}
	// Different seeds give different permutations (overwhelmingly).
	r := NewRandPerm(64, 6)
	same := 0
	for i := 0; i < 64; i++ {
		if p.Dest(topo.NodeID(i), nil) == r.Dest(topo.NodeID(i), nil) {
			same++
		}
	}
	if same == 64 {
		t.Fatal("different seeds gave identical permutations")
	}
	if p.Name() != "randperm" {
		t.Error("name")
	}
}

// TestDestRangeIsDestLaw holds each exact destination law to its Dest:
// every draw lands in [first, first+n), and enough draws cover it.
func TestDestRangeIsDestLaw(t *testing.T) {
	laws := []interface {
		Pattern
		DestRange(topo.NodeID) (first, n int)
	}{
		NewUniform(24), NewWorstCase(4, 6), NewTornado(3, 8), NewTornado(8, 3),
		NewFixed("perm", []topo.NodeID{3, 0, 2, 1}),
	}
	r := rng.New(7)
	for _, p := range laws {
		nodes := 24
		if f, ok := p.(*Fixed); ok {
			nodes = len(f.Table)
		}
		for src := 0; src < nodes; src++ {
			first, n := p.DestRange(topo.NodeID(src))
			seen := map[topo.NodeID]bool{}
			for i := 0; i < 40*n; i++ {
				d := p.Dest(topo.NodeID(src), r)
				if int(d) < first || int(d) >= first+n {
					t.Fatalf("%s: node %d drew %d, outside its law [%d, %d)", p.Name(), src, d, first, first+n)
				}
				seen[d] = true
			}
			if len(seen) != n {
				t.Errorf("%s: node %d drew %d of the %d nodes of its law", p.Name(), src, len(seen), n)
			}
		}
	}
}
