package topo

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestPortLayoutSizes guards the channel graph's port-table layout
// (DESIGN.md §10): every port of every router is one OutPort and one
// InPort, so a field added to either, or a field widened back to int,
// multiplies straight into construction time and memory.
func TestPortLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"OutPort", unsafe.Sizeof(OutPort{}), 20},
		{"InPort", unsafe.Sizeof(InPort{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestGraphDigestPinned holds Graph.Digest for one small graph per
// topology family (Slim Fly at both residue classes and a larger q) to
// literals: snapshot files embed the digest, so neither the port-table
// representation nor a constructor's wiring order may move it.
func TestGraphDigestPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (Topology, error)
		want  uint64
	}{
		{"4-ary 2-flat x2", func() (Topology, error) {
			return NewFlatFly(4, 2, WithMultiplicity(2), WithChannelLatency(2), WithTerminalLatency(3))
		}, 0xefeaff78},
		{"4-ary 3-flat", func() (Topology, error) { return NewFlatFly(4, 3) }, 0x2ab74788},
		{"4-ary 2-fly x2", func() (Topology, error) { return NewDilatedButterfly(4, 2, 2) }, 0x5ca6ffd2},
		{"folded-Clos(t=4,u=4,L=4,M=2)", func() (Topology, error) { return NewFoldedClos(4, 4, 4, 2) }, 0x3a185d82},
		{"4-cube(c=2)", func() (Topology, error) { return NewConcentratedHypercube(4, 2) }, 0xf5a238c0},
		{"SF(q=5,p=4)", func() (Topology, error) { return NewSlimFly(5, 0) }, 0xde2ffd7e},
		{"SF(q=7,p=2)", func() (Topology, error) { return NewSlimFly(7, 2) }, 0xf1d267a7},
		{"SF(q=13,p=10)", func() (Topology, error) { return NewSlimFly(13, 0) }, 0x2d607ab0},
		{"DF(p=2,a=4,h=2)", func() (Topology, error) { return NewDragonfly(2, 4, 2) }, 0x54a371e9},
		{"4-ary 2-cube", func() (Topology, error) { return NewTorus(4, 2) }, 0x77a3b92a},
		{"GHC(3,4)", func() (Topology, error) { return NewGHC([]int{3, 4}) }, 0xc9588395},
		{"1-flat(R=5,c=3)", func() (Topology, error) { return NewOneDimFB(5, 3) }, 0x94a0},
	} {
		tp, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tp.Name() != c.name {
			t.Errorf("built %q, want %q", tp.Name(), c.name)
		}
		if got := tp.Graph().Digest(); got != c.want {
			t.Errorf("%s: Digest = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestValidateStripedDeterministic corrupts two routers that fall in
// different stripes of a 1024-router graph: whatever the stripe count,
// Validate must report the lower router, with the sequential scan's
// message.
func TestValidateStripedDeterministic(t *testing.T) {
	tor, err := NewTorus(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := tor.Graph()
	if len(g.Routers) < validateStripe {
		t.Fatalf("%d routers: too few to stripe", len(g.Routers))
	}
	g.Routers[100].Out[1].Latency = 0
	g.Routers[900].Out[2].Latency = 0
	want := g.validateRange(0, len(g.Routers))
	if want == nil || !strings.Contains(want.Error(), "router 100 ") {
		t.Fatalf("sequential scan: %v, want router 100's violation", want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if err := g.Validate(); err == nil || err.Error() != want.Error() {
			t.Errorf("GOMAXPROCS %d: Validate = %v, want %v", procs, err, want)
		}
	}
	for _, stripes := range []int{2, 3, 4, 7, 16} {
		if err := g.validateRouters(stripes); err == nil || err.Error() != want.Error() {
			t.Errorf("%d stripes: %v, want %v", stripes, err, want)
		}
	}
	// With the lower router mended, the upper one's violation surfaces.
	g.Routers[100].Out[1].Latency = 1
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "router 900 ") {
		t.Errorf("after mending router 100: %v, want router 900's violation", err)
	}
}

// TestVerifyDiameter2Rejects feeds the Slim Fly verifier hand-built
// adjacencies it must refuse: a disconnected graph (an unreachable router
// once slipped through as distance -1) and a path of diameter 3.
func TestVerifyDiameter2Rejects(t *testing.T) {
	all := func(n int) ([]RouterID, []int) {
		reps, sizes := make([]RouterID, n), make([]int, n)
		for i := range reps {
			reps[i], sizes[i] = RouterID(i), 1
		}
		return reps, sizes
	}
	for _, c := range []struct {
		name   string
		adj    [][]int32
		reason string
	}{
		{"two triangles", [][]int32{{1, 2}, {0, 2}, {0, 1}, {4, 5}, {3, 5}, {3, 4}}, "disconnected"},
		{"path of four", [][]int32{{1}, {0, 2}, {1, 3}, {2}}, "diameter 3"},
	} {
		reps, sizes := all(len(c.adj))
		_, _, err := verifyDiameter2(11, c.adj, reps, sizes)
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Param != "q" || pe.Value != 11 {
			t.Fatalf("%s: %v, want a *ParamError on q = 11", c.name, err)
		}
		if !strings.Contains(pe.Reason, c.reason) {
			t.Errorf("%s: reason %q does not say %q", c.name, pe.Reason, c.reason)
		}
	}
}

// TestVerifyDiameter2MatchesBFS holds the two-hop bitset's hop sum and
// diameter to a BFS from every router, on graphs of diameter 0, 1 and 2.
func TestVerifyDiameter2MatchesBFS(t *testing.T) {
	sf, err := NewSlimFly(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	sfAdj := make([][]int32, sf.NumRouters)
	for r := range sfAdj {
		sfAdj[r] = sf.Adjacency(RouterID(r))
	}
	for _, c := range []struct {
		name string
		adj  [][]int32
	}{
		{"single router", [][]int32{{}}},
		{"K4", [][]int32{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}},
		{"star", [][]int32{{1, 2, 3}, {0}, {0}, {0}}},
		{"SF(q=7)", sfAdj},
	} {
		reps, sizes := make([]RouterID, len(c.adj)), make([]int, len(c.adj))
		wantDiam, wantTotal := 0, 0
		for r := range c.adj {
			reps[r], sizes[r] = RouterID(r), 1
			for _, d := range bfsAdj(c.adj, r) {
				wantDiam = max(wantDiam, d)
				wantTotal += d
			}
		}
		diam, total, err := verifyDiameter2(7, c.adj, reps, sizes)
		if err != nil || diam != wantDiam || total != wantTotal {
			t.Errorf("%s: (%d, %d, %v), want BFS's (%d, %d, nil)", c.name, diam, total, err, wantDiam, wantTotal)
		}
	}
}

// BenchmarkTopoBuild times construction of the three largest analytic-mode
// design points, Validate included, in ms and bytes per build.
func BenchmarkTopoBuild(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (Topology, error)
	}{
		{"slimfly_q43", func() (Topology, error) { return NewSlimFly(43, 0) }},
		{"flatfly_32ary3", func() (Topology, error) { return NewFlatFly(32, 3) }},
		{"dragonfly_h8", func() (Topology, error) { return NewDragonfly(0, 0, 8) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/build")
		})
	}
}
