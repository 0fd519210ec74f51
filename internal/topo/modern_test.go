package topo

import (
	"errors"
	"testing"
)

// bfsDist runs a plain BFS over a channel graph's network channels.
func bfsDist(g *Graph, src RouterID) []int {
	dist := make([]int, len(g.Routers))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []RouterID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, out := range g.Routers[v].Out {
			if out.Kind == Network && dist[out.Peer] < 0 {
				dist[out.Peer] = dist[v] + 1
				queue = append(queue, RouterID(out.Peer))
			}
		}
	}
	return dist
}

// checkSlimFly asserts the MMS structural invariants for one instance.
func checkSlimFly(t *testing.T, q int) {
	t.Helper()
	s, err := NewSlimFly(q, 1)
	if err != nil {
		t.Fatalf("q=%d: %v", q, err)
	}
	if s.NumRouters != 2*q*q {
		t.Fatalf("q=%d: %d routers, want %d", q, s.NumRouters, 2*q*q)
	}
	wantDeg := (3*q - s.Delta) / 2
	if s.NetworkDegree != wantDeg {
		t.Fatalf("q=%d: degree %d, want %d", q, s.NetworkDegree, wantDeg)
	}
	g := s.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("q=%d: %v", q, err)
	}
	// Regularity and bidirectional symmetry over the channel graph.
	for r := 0; r < s.NumRouters; r++ {
		deg := 0
		for _, out := range g.Routers[r].Out {
			if out.Kind != Network {
				continue
			}
			deg++
			// Every network out-channel must have an opposing channel.
			found := false
			for _, ret := range g.Routers[out.Peer].Out {
				if ret.Kind == Network && int(ret.Peer) == r {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("q=%d: channel %d->%d has no opposing channel", q, r, out.Peer)
			}
		}
		if deg != wantDeg {
			t.Fatalf("q=%d: router %d degree %d, want %d", q, r, deg, wantDeg)
		}
	}
	// Diameter 2, measured independently of the constructor's own check.
	for _, src := range []RouterID{0, RouterID(s.NumRouters / 2), RouterID(s.NumRouters - 1)} {
		for _, dst := range bfsDist(g, src) {
			if dst < 0 || dst > 2 {
				t.Fatalf("q=%d: BFS distance %d from router %d (want 0..2)", q, dst, src)
			}
		}
	}
	if s.Diameter() != 2 {
		t.Fatalf("q=%d: Diameter() = %d", q, s.Diameter())
	}
}

// TestSlimFlyConstruction covers both residue classes and the prime-power
// cases across the valid small range.
func TestSlimFlyConstruction(t *testing.T) {
	for _, q := range []int{5, 7, 9, 11, 13, 17, 19, 23, 25, 27} {
		checkSlimFly(t, q)
	}
}

// TestSlimFlyDefaultConcentration pins the ⌈k'/2⌉ default.
func TestSlimFlyDefaultConcentration(t *testing.T) {
	s, err := NewSlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.P != 4 { // k' = 7, ⌈7/2⌉ = 4
		t.Fatalf("q=5 default p = %d, want 4", s.P)
	}
	if s.NumNodes != 200 {
		t.Fatalf("q=5 default nodes = %d, want 200", s.NumNodes)
	}
}

// FuzzSlimFlyGraph fuzzes the constructor over arbitrary (q, p): valid
// parameters must yield a regular, symmetric, diameter-2 graph and
// invalid ones a *ParamError — never a panic or a wrong network.
func FuzzSlimFlyGraph(f *testing.F) {
	for _, q := range []int{5, 7, 9, 11, 13, 4, 6, 8, 12, 15, 21, 0, -3} {
		f.Add(q, 1)
	}
	f.Add(5, 4)
	f.Add(7, 0)
	f.Fuzz(func(t *testing.T, q, p int) {
		if q > 32 || p > 8 || p < -8 {
			t.Skip("bounded for fuzz throughput")
		}
		s, err := NewSlimFly(q, p)
		if err != nil {
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("NewSlimFly(%d,%d) returned a non-structured error: %v", q, p, err)
			}
			return
		}
		if s.NumRouters != 2*q*q || s.NumNodes != s.NumRouters*s.P {
			t.Fatalf("q=%d p=%d: inconsistent sizes R=%d N=%d", q, p, s.NumRouters, s.NumNodes)
		}
		g := s.Graph()
		if err := g.Validate(); err != nil {
			t.Fatalf("q=%d p=%d: %v", q, p, err)
		}
		for r := 0; r < s.NumRouters; r++ {
			if got := len(s.Adjacency(RouterID(r))); got != s.NetworkDegree {
				t.Fatalf("q=%d: router %d degree %d, want %d", q, r, got, s.NetworkDegree)
			}
		}
		for _, d := range bfsDist(g, 0) {
			if d < 0 || d > 2 {
				t.Fatalf("q=%d: disconnected or diameter > 2 (dist %d)", q, d)
			}
		}
	})
}

// TestDragonflyInvariants asserts vertex count, regularity, bidirectional
// symmetry, the one-global-channel-per-group-pair property and diameter
// <= 3 across canonical and non-canonical parameterizations.
func TestDragonflyInvariants(t *testing.T) {
	cases := []struct{ p, a, h int }{
		{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {1, 2, 1}, {2, 4, 2}, {1, 3, 2}, {3, 6, 3},
	}
	for _, tc := range cases {
		d, err := NewDragonfly(tc.p, tc.a, tc.h)
		if err != nil {
			t.Fatalf("NewDragonfly(%d,%d,%d): %v", tc.p, tc.a, tc.h, err)
		}
		if d.Groups != d.A*d.H+1 {
			t.Fatalf("%s: %d groups, want %d", d.Name(), d.Groups, d.A*d.H+1)
		}
		if d.NumRouters != d.Groups*d.A || d.NumNodes != d.NumRouters*d.P {
			t.Fatalf("%s: inconsistent sizes", d.Name())
		}
		g := d.Graph()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		// Regular degree: a-1 local + h global network channels.
		wantDeg := d.A - 1 + d.H
		globalBetween := make(map[[2]int]int)
		for r := 0; r < d.NumRouters; r++ {
			deg := 0
			for _, out := range g.Routers[r].Out {
				if out.Kind != Network {
					continue
				}
				deg++
				g1, g2 := d.Group(RouterID(r)), d.Group(RouterID(out.Peer))
				if g1 != g2 {
					globalBetween[[2]int{g1, g2}]++
				}
			}
			if deg != wantDeg {
				t.Fatalf("%s: router %d degree %d, want %d", d.Name(), r, deg, wantDeg)
			}
		}
		// Exactly one global channel in each direction per group pair.
		for a := 0; a < d.Groups; a++ {
			for b := 0; b < d.Groups; b++ {
				if a == b {
					continue
				}
				if globalBetween[[2]int{a, b}] != 1 {
					t.Fatalf("%s: %d global channels from group %d to %d, want 1",
						d.Name(), globalBetween[[2]int{a, b}], a, b)
				}
			}
		}
		// Graph diameter <= 3, and the hierarchical MinHops is an upper
		// bound on the true distance.
		for _, src := range []RouterID{0, RouterID(d.NumRouters - 1)} {
			dist := bfsDist(g, src)
			for b, dd := range dist {
				if dd < 0 || dd > 3 {
					t.Fatalf("%s: BFS distance %d (want 0..3)", d.Name(), dd)
				}
				if mh := d.MinHops(src, RouterID(b)); dd > mh {
					t.Fatalf("%s: BFS dist %d exceeds hierarchical MinHops %d", d.Name(), dd, mh)
				}
			}
		}
		if dm := d.Diameter(); dm > 3 {
			t.Fatalf("%s: Diameter() = %d", d.Name(), dm)
		}
	}
}

// TestDragonflyAvgHops cross-checks the orbit-based average against the
// brute-force all-pairs average.
func TestDragonflyAvgHops(t *testing.T) {
	d, err := NewDragonfly(0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for a := 0; a < d.NumRouters; a++ {
		for b := 0; b < d.NumRouters; b++ {
			total += d.MinHops(RouterID(a), RouterID(b))
		}
	}
	want := float64(total) / float64(d.NumRouters*d.NumRouters)
	if got := d.AvgUniformMinHops(); got != want {
		t.Fatalf("orbit average %.6f, brute force %.6f", got, want)
	}
}

// TestSlimFlyAvgHopsOrbits cross-checks the orbit-weighted average
// against all-pairs BFS.
func TestSlimFlyAvgHopsOrbits(t *testing.T) {
	s, err := NewSlimFly(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := 0; r < s.NumRouters; r++ {
		for _, d := range bfsDist(s.Graph(), RouterID(r)) {
			total += d
		}
	}
	want := float64(total) / float64(s.NumRouters*s.NumRouters)
	if got := s.AvgUniformMinHops(); got != want {
		t.Fatalf("orbit average %.6f, brute force %.6f", got, want)
	}
}

// TestModernParamErrors is the table-driven structured-error contract:
// invalid parameters produce a *ParamError naming the offending field.
func TestModernParamErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() error
		param string
	}{
		{"slimfly q=4 (non-residue class)", func() error { _, err := NewSlimFly(4, 1); return err }, "q"},
		{"slimfly q=6 (not a prime power)", func() error { _, err := NewSlimFly(6, 1); return err }, "q"},
		{"slimfly q=15 (not a prime power)", func() error { _, err := NewSlimFly(15, 1); return err }, "q"},
		{"slimfly q=21 (not a prime power)", func() error { _, err := NewSlimFly(21, 1); return err }, "q"},
		{"slimfly q=0", func() error { _, err := NewSlimFly(0, 1); return err }, "q"},
		{"slimfly q=-5", func() error { _, err := NewSlimFly(-5, 1); return err }, "q"},
		{"slimfly p=-1", func() error { _, err := NewSlimFly(5, -1); return err }, "p"},
		{"dragonfly h=0", func() error { _, err := NewDragonfly(1, 2, 0); return err }, "h"},
		{"dragonfly h=-2", func() error { _, err := NewDragonfly(1, 2, -2); return err }, "h"},
		{"dragonfly p=-1", func() error { _, err := NewDragonfly(-1, 2, 1); return err }, "p"},
		{"dragonfly a<h radix mismatch", func() error { _, err := NewDragonfly(1, 2, 3); return err }, "a"},
		{"dragonfly a=-1", func() error { _, err := NewDragonfly(1, -1, 1); return err }, "a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build()
			if err == nil {
				t.Fatal("constructor accepted invalid parameters")
			}
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("error is not a *ParamError: %v", err)
			}
			if pe.Param != tc.param {
				t.Fatalf("ParamError names %q, want %q (err: %v)", pe.Param, tc.param, err)
			}
		})
	}
}
