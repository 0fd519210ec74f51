package topo

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestGraphValidateCatchesBrokenMirror(t *testing.T) {
	g := NewGraph("broken", 0, PortRun{2, 2})
	g.Connect(0, 0, 1, 0, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid one-way channel rejected: %v", err)
	}
	// A channel stored once has no mirror to disagree with; the input
	// side breaks when a second channel enters the same input port.
	g.Connect(1, 1, 1, 0, 1)
	if err := g.Validate(); err == nil {
		t.Fatal("second channel into input 1.0 not detected")
	}
}

func TestGraphValidateCatchesBadLatency(t *testing.T) {
	g := NewGraph("badlat", 0, PortRun{2, 1})
	g.Connect(0, 0, 1, 0, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("zero latency not detected")
	}
}

func TestGraphValidateCatchesBadNodeTables(t *testing.T) {
	g := NewGraph("badnode", 1, PortRun{1, 1})
	g.AttachNode(0, 0, 0, 0, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid attach rejected: %v", err)
	}
	g.InjPort[0] = 5
	if err := g.Validate(); err == nil {
		t.Fatal("bad injection port not detected")
	}
}

func TestButterflyStructure(t *testing.T) {
	b, err := NewButterfly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumNodes != 16 || b.RoutersPerStage != 4 || b.NumRouters != 8 {
		t.Fatalf("unexpected sizes: %+v", b)
	}
	if err := b.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	// k-ary n-fly has N channels between each pair of adjacent stages.
	if got := b.Graph().CountChannels(); got != 16 {
		t.Fatalf("channels = %d, want 16", got)
	}
}

func TestButterflyRejectsBadParams(t *testing.T) {
	if _, err := NewButterfly(1, 2); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewButterfly(4, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestButterflyDestinationPath(t *testing.T) {
	// Destination-tag routing must reach the right terminal: follow the
	// OutputFor ports from every source's stage-0 router and confirm
	// arrival at the destination's ejection router and terminal port.
	b, err := NewButterfly(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	for src := 0; src < b.NumNodes; src++ {
		for dst := 0; dst < b.NumNodes; dst++ {
			r := g.NodeRouter[src]
			for s := 0; s < b.N-1; s++ {
				out := g.Routers[r].Out[b.OutputFor(s, NodeID(dst))]
				if out.Kind != Network {
					t.Fatalf("src %d dst %d stage %d: expected network channel", src, dst, s)
				}
				r = RouterID(out.Peer)
			}
			if r != b.EjectRouter(NodeID(dst)) {
				t.Fatalf("src %d dst %d: reached router %d, want %d", src, dst, r, b.EjectRouter(NodeID(dst)))
			}
			out := g.Routers[r].Out[b.OutputFor(b.N-1, NodeID(dst))]
			if out.Kind != Terminal || int(out.Peer) != dst {
				t.Fatalf("src %d dst %d: final hop reaches %v %d", src, dst, out.Kind, out.Peer)
			}
		}
	}
}

func TestButterflyPathUniqueProperty(t *testing.T) {
	b, err := NewButterfly(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	check := func(s, d uint16) bool {
		src := NodeID(int(s) % b.NumNodes)
		dst := NodeID(int(d) % b.NumNodes)
		// Walk the unique path; it must take exactly n router hops.
		g := b.Graph()
		r := g.NodeRouter[src]
		for st := 0; st < b.N-1; st++ {
			out := g.Routers[r].Out[b.OutputFor(st, dst)]
			if out.Kind != Network {
				return false
			}
			r = RouterID(out.Peer)
		}
		out := g.Routers[r].Out[b.OutputFor(b.N-1, dst)]
		return out.Kind == Terminal && NodeID(out.Peer) == dst
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldedClosStructure(t *testing.T) {
	// The paper's 1024-node tapered folded Clos: 32 leaves with 32
	// terminals and 16 uplinks, 8 middles of radix 64.
	f, err := NewFoldedClos(32, 16, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes != 1024 || f.NumRouters != 40 || f.PairLinks != 2 {
		t.Fatalf("unexpected sizes: %+v", f)
	}
	if err := f.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	// 32 leaves x 16 uplinks bidirectional = 1024 unidirectional channels.
	if got := f.Graph().CountChannels(); got != 1024 {
		t.Fatalf("channels = %d, want 1024", got)
	}
	// Every middle must reach every leaf.
	g := f.Graph()
	for m := 0; m < f.Middles; m++ {
		seen := make(map[RouterID]int)
		for _, out := range g.Routers[f.MiddleRouter(m)].Out {
			if out.Kind == Network {
				seen[RouterID(out.Peer)]++
			}
		}
		if len(seen) != f.Leaves {
			t.Fatalf("middle %d reaches %d leaves, want %d", m, len(seen), f.Leaves)
		}
		for l, c := range seen {
			if c != f.PairLinks {
				t.Fatalf("middle %d has %d links to leaf %d, want %d", m, c, l, f.PairLinks)
			}
		}
	}
}

func TestFoldedClosRejectsBadParams(t *testing.T) {
	if _, err := NewFoldedClos(32, 15, 32, 8); err == nil {
		t.Error("non-divisible uplinks accepted")
	}
	if _, err := NewFoldedClos(0, 16, 32, 8); err == nil {
		t.Error("zero terminals accepted")
	}
	if _, err := NewFoldedClos(32, 16, 1, 8); err == nil {
		t.Error("single leaf accepted")
	}
}

func TestFoldedClosDownPorts(t *testing.T) {
	f, err := NewFoldedClos(4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Graph()
	for m := 0; m < f.Middles; m++ {
		for l := 0; l < f.Leaves; l++ {
			lo, hi := f.DownPorts(l)
			for p := lo; p < hi; p++ {
				out := g.Routers[f.MiddleRouter(m)].Out[p]
				if out.Kind != Network || int(out.Peer) != l {
					t.Fatalf("middle %d port %d should reach leaf %d, got %v %d", m, p, l, out.Kind, out.Peer)
				}
			}
		}
	}
}

func TestTaperedClosForNodes(t *testing.T) {
	f, err := TaperedClosForNodes(1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if f.Terminals != 32 || f.Uplinks != 16 || f.Leaves != 32 || f.Middles != 8 {
		t.Fatalf("unexpected: %+v", f)
	}
	if err := f.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := TaperedClosForNodes(1000, 64); err == nil {
		t.Error("indivisible node count accepted")
	}
}

func TestHypercubeStructure(t *testing.T) {
	h, err := NewHypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes != 1024 || h.NumRouters != 1024 {
		t.Fatalf("sizes: %+v", h)
	}
	if err := h.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	// n*2^n / 2 bidirectional links = n*2^n unidirectional channels.
	if got := h.Graph().CountChannels(); got != 10*1024 {
		t.Fatalf("channels = %d, want %d", got, 10*1024)
	}
	if h.MinHops(0, 1023) != 10 {
		t.Fatal("antipodal distance should be 10")
	}
	if h.MinHops(5, 5) != 0 {
		t.Fatal("self distance should be 0")
	}
}

func TestHypercubeNeighbors(t *testing.T) {
	h, err := NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	g := h.Graph()
	for r := 0; r < h.NumRouters; r++ {
		for d := 0; d < h.Dims; d++ {
			out := g.Routers[r].Out[h.PortForDim(d)]
			if out.Kind != Network || int(out.Peer) != r^(1<<d) {
				t.Fatalf("router %d dim %d reaches %d, want %d", r, d, out.Peer, r^(1<<d))
			}
		}
	}
	if _, err := NewHypercube(0); err == nil {
		t.Error("dims=0 accepted")
	}
	if _, err := NewHypercube(31); err == nil {
		t.Error("dims=31 accepted")
	}
}

func TestGHCStructure(t *testing.T) {
	// The paper's §2.3 example: an (8,8,16) GHC for 1024 nodes with 32
	// inter-router channels per router (7+7+15 = 29... the figure counts
	// 32 = 7+7+15 plus padding; we verify the true degree).
	h, err := NewGHC([]int{8, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes != 1024 {
		t.Fatalf("nodes = %d", h.NumNodes)
	}
	if h.Degree != 7+7+15 {
		t.Fatalf("degree = %d, want 29", h.Degree)
	}
	if err := h.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-router degree including terminal = 30.
	if d := h.Graph().Degree(0); d != 30 {
		t.Fatalf("router degree = %d, want 30", d)
	}
}

func TestGHCDigitsAndPorts(t *testing.T) {
	h, err := NewGHC([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	g := h.Graph()
	for r := 0; r < h.NumRouters; r++ {
		for d, m := range h.Radices {
			own := h.Digit(RouterID(r), d)
			for v := 0; v < m; v++ {
				out := g.Routers[r].Out[h.PortFor(d, v)]
				if v == own {
					if out.Kind != Unused {
						t.Fatalf("router %d dim %d self slot not unused", r, d)
					}
					continue
				}
				if out.Kind != Network {
					t.Fatalf("router %d dim %d v %d: not connected", r, d, v)
				}
				if h.Digit(RouterID(out.Peer), d) != v {
					t.Fatalf("router %d dim %d v %d: peer digit mismatch", r, d, v)
				}
			}
		}
	}
	if _, err := NewGHC(nil); err == nil {
		t.Error("empty radices accepted")
	}
	if _, err := NewGHC([]int{4, 1}); err == nil {
		t.Error("radix-1 dimension accepted")
	}
}

func TestGHCMinHops(t *testing.T) {
	h, err := NewGHC([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if h.MinHops(0, 5) != 2 { // digits (0,0) vs (1,1)
		t.Fatal("expected 2 differing digits")
	}
	if h.MinHops(0, 3) != 1 { // digits (0,0) vs (3,0)
		t.Fatal("expected 1 differing digit")
	}
}

func TestPortKindString(t *testing.T) {
	if Unused.String() != "unused" || Terminal.String() != "terminal" || Network.String() != "network" {
		t.Fatal("PortKind strings wrong")
	}
	if PortKind(9).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestWriteDOT(t *testing.T) {
	f, err := NewFoldedClos(2, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteDOT(&sb, f.Graph()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph network {", "r0", "r2", "--", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Bidirectional links are drawn once: 2 leaves x 2 uplinks = 4 edges.
	if got := strings.Count(out, "--"); got != 4 {
		t.Errorf("edge count = %d, want 4", got)
	}
	// Unidirectional butterfly channels carry dir=forward.
	b, err := NewButterfly(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := WriteDOT(&sb, b.Graph()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dir=forward") {
		t.Error("butterfly DOT should mark directed channels")
	}
}
