package topo

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestPortLayoutSizes guards the channel graph's port-table layout
// (DESIGN.md §10): every port of every router is one stored OutPort (the
// input side is derived) and every node one entry in each of four node
// tables, so a field added to either, or a field widened back to int,
// multiplies straight into construction time and memory.
func TestPortLayoutSizes(t *testing.T) {
	if got := unsafe.Sizeof(OutPort{}); got != 16 {
		t.Errorf("sizeof(OutPort) = %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Router{}); got != unsafe.Sizeof([]OutPort{}) {
		t.Errorf("sizeof(Router) = %d bytes, want one port-table header", got)
	}
	var g Graph
	for name, got := range map[string]uintptr{
		"NodeRouter": unsafe.Sizeof(g.NodeRouter[0]), "EjRouter": unsafe.Sizeof(g.EjRouter[0]),
		"InjPort": unsafe.Sizeof(g.InjPort[0]), "EjPort": unsafe.Sizeof(g.EjPort[0]),
	} {
		if got != 4 {
			t.Errorf("sizeof(%s[0]) = %d bytes, want 4", name, got)
		}
	}
}

// familyGraphs builds one small graph per topology family (Slim Fly at
// both residue classes and a larger q), with the Digest each must keep:
// snapshot files embed the digest, so neither the port-table
// representation nor a constructor's wiring order may move it.
var familyGraphs = []struct {
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
}

// TestGraphDigestPinned holds Graph.Digest of every familyGraphs entry to
// its literal.
func TestGraphDigestPinned(t *testing.T) {
	for _, c := range familyGraphs {
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

// corruptSite is where TestValidateRejectsCorruption breaks a graph: the
// first two network outputs p and p2 of router r, and node n.
type corruptSite struct{ r, p, p2, n int }

// corruptSites picks two sites of g, lo before hi in router order and in
// node order: routers with two network outputs at a quarter and three
// quarters of their list, and the nodes at a quarter and three quarters.
func corruptSites(t *testing.T, g *Graph) (lo, hi corruptSite) {
	t.Helper()
	var sites []corruptSite
	for r := range g.Routers {
		var nets []int
		for p, out := range g.Routers[r].Out {
			if out.Kind == Network {
				nets = append(nets, p)
			}
		}
		if len(nets) >= 2 {
			sites = append(sites, corruptSite{r: r, p: nets[0], p2: nets[1]})
		}
	}
	lo, hi = sites[len(sites)/4], sites[3*len(sites)/4]
	lo.n, hi.n = g.NumNodes/4, 3*g.NumNodes/4
	if lo.r >= hi.r || lo.n < 1 || g.EjRouter[lo.n] >= g.EjRouter[hi.n] {
		t.Fatalf("%s: sites %+v and %+v are not ordered", g.Label, lo, hi)
	}
	return lo, hi
}

// TestValidateRejectsCorruption breaks one graph per family in each way
// Validate guards against, at two sites: Validate must reject it and name
// the lower site's violation — its router for a port-table fault, its
// node for a node-table fault.
func TestValidateRejectsCorruption(t *testing.T) {
	ejection := func(g *Graph, n int) *OutPort { return &g.Routers[g.EjRouter[n]].Out[g.EjPort[n]] }
	for _, c := range []struct {
		name    string
		corrupt func(g *Graph, s corruptSite) (want string)
	}{
		{"peer out of range", func(g *Graph, s corruptSite) string {
			g.Routers[s.r].Out[s.p].Peer = int32(len(g.Routers))
			return fmt.Sprintf("router %d out port %d peer %d out of range", s.r, s.p, len(g.Routers))
		}},
		{"peer port out of range", func(g *Graph, s corruptSite) string {
			out := &g.Routers[s.r].Out[s.p]
			out.PeerPort = int32(len(g.Routers[out.Peer].Out))
			return fmt.Sprintf("router %d out port %d peer port %d out of range", s.r, s.p, out.PeerPort)
		}},
		{"two channels into one input", func(g *Graph, s corruptSite) string {
			out := g.Routers[s.r].Out
			out[s.p2].Peer, out[s.p2].PeerPort = out[s.p].Peer, out[s.p].PeerPort
			return fmt.Sprintf("router %d out port %d enters %d.%d, which another channel enters too", s.r, s.p2, out[s.p].Peer, out[s.p].PeerPort)
		}},
		{"channel into an injection port", func(g *Graph, s corruptSite) string {
			r, ip := g.NodeRouter[s.n], g.InjPort[s.n]
			g.Routers[s.r].Out[s.p].Peer, g.Routers[s.r].Out[s.p].PeerPort = int32(r), int32(ip)
			return fmt.Sprintf("node %d injects at %d.%d, which a channel or another node enters too", s.n, r, ip)
		}},
		{"node left unattached", func(g *Graph, s corruptSite) string {
			// Its tables still name the port; no terminal output names it.
			*ejection(g, s.n) = OutPort{}
			return fmt.Sprintf("node %d ejection port %d.%d does not name it", s.n, g.EjRouter[s.n], g.EjPort[s.n])
		}},
		{"node attached twice", func(g *Graph, s corruptSite) string {
			er, ep, m := g.EjRouter[s.n], g.EjPort[s.n], s.n+1
			g.AttachNodeSplit(NodeID(s.n), g.NodeRouter[m], int(g.InjPort[m]), g.EjRouter[m], int(g.EjPort[m]), 1)
			return fmt.Sprintf("router %d ejection port %d does not match node %d tables", er, ep, s.n)
		}},
		{"network latency 0", func(g *Graph, s corruptSite) string {
			g.Routers[s.r].Out[s.p].Latency = 0
			return fmt.Sprintf("router %d out port %d latency 0 < 1", s.r, s.p)
		}},
		{"terminal latency 0", func(g *Graph, s corruptSite) string {
			ejection(g, s.n).Latency = 0
			return fmt.Sprintf("router %d ejection port %d latency 0 < 1", g.EjRouter[s.n], g.EjPort[s.n])
		}},
		{"terminal output names the wrong node", func(g *Graph, s corruptSite) string {
			ejection(g, s.n).Peer = int32(s.n + 1)
			return fmt.Sprintf("router %d ejection port %d does not match node %d tables", g.EjRouter[s.n], g.EjPort[s.n], s.n+1)
		}},
		{"terminal output names a node out of range", func(g *Graph, s corruptSite) string {
			ejection(g, s.n).Peer = int32(g.NumNodes)
			return fmt.Sprintf("router %d ejection port %d node %d out of range", g.EjRouter[s.n], g.EjPort[s.n], g.NumNodes)
		}},
	} {
		for _, f := range familyGraphs {
			tp, err := f.build()
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			g := tp.Graph()
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: intact graph rejected: %v", f.name, err)
			}
			lo, hi := corruptSites(t, g)
			c.corrupt(g, hi)
			want := c.corrupt(g, lo)
			if err := g.Validate(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, %s: Validate = %v, want %q", c.name, f.name, err, want)
			}
		}
	}
}

// TestValidateStripedDeterministic corrupts two routers far apart in a
// 1024-router graph: at every GOMAXPROCS, Validate must report the lower
// router, and once it is mended the upper one.
func TestValidateStripedDeterministic(t *testing.T) {
	tor, err := NewTorus(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := tor.Graph()
	g.Routers[100].Out[1].Latency = 0
	g.Routers[900].Out[2].Latency = 0
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "router 100 out port 1 latency 0") {
			t.Errorf("GOMAXPROCS %d: Validate = %v, want router 100's violation", procs, err)
		}
	}
	g.Routers[100].Out[1].Latency = 1
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "router 900 out port 2 latency 0") {
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

// BenchmarkTopoBuild times construction of the four largest analytic-mode
// design points, Validate included, in ms and bytes per build.
func BenchmarkTopoBuild(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (Topology, error)
	}{
		{"slimfly_q43", func() (Topology, error) { return NewSlimFly(43, 0) }},
		{"flatfly_32ary3", func() (Topology, error) { return NewFlatFly(32, 3) }},
		{"flatfly_16ary4", func() (Topology, error) { return NewFlatFly(16, 4) }},
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
