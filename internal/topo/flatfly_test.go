package topo

import (
	"testing"
	"testing/quick"
)

func mustFF(t *testing.T, k, n int, opts ...FlatFlyOption) *FlatFly {
	t.Helper()
	f, err := NewFlatFly(k, n, opts...)
	if err != nil {
		t.Fatalf("NewFlatFly(%d,%d): %v", k, n, err)
	}
	return f
}

func TestFlatFlyParameters(t *testing.T) {
	cases := []struct {
		k, n                        int
		nodes, routers, radix, dims int
	}{
		{4, 2, 16, 4, 7, 1},         // Fig 1(b)
		{2, 4, 16, 8, 5, 3},         // Fig 1(d)
		{32, 2, 1024, 32, 63, 1},    // §3.2 simulated network
		{16, 4, 65536, 4096, 61, 3}, // Fig 8
		{8, 4, 4096, 512, 29, 3},    // Table 4 row
	}
	for _, c := range cases {
		f := mustFF(t, c.k, c.n)
		if f.NumNodes != c.nodes || f.NumRouters != c.routers || f.Radix != c.radix || f.Dims != c.dims {
			t.Errorf("%d-ary %d-flat: got N=%d R=%d k'=%d n'=%d, want N=%d R=%d k'=%d n'=%d",
				c.k, c.n, f.NumNodes, f.NumRouters, f.Radix, f.Dims, c.nodes, c.routers, c.radix, c.dims)
		}
	}
}

func TestFlatFlyRejectsBadParams(t *testing.T) {
	if _, err := NewFlatFly(1, 2); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewFlatFly(4, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewFlatFly(4, 3, WithMultiplicity(2)); err == nil {
		t.Error("multiplicity>1 with n=3 accepted")
	}
	if _, err := NewFlatFly(4, 2, WithMultiplicity(0)); err == nil {
		t.Error("multiplicity=0 accepted")
	}
}

func TestFlatFlyGraphValid(t *testing.T) {
	for _, c := range []struct{ k, n int }{{2, 2}, {4, 2}, {2, 4}, {4, 3}, {8, 2}, {3, 3}} {
		f := mustFF(t, c.k, c.n)
		if err := f.Graph().Validate(); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestFlatFlyDegreeMatchesRadix(t *testing.T) {
	// Every router must use exactly k' = n(k-1)+1 ports: k terminals plus
	// (k-1) per dimension.
	f := mustFF(t, 4, 3)
	g := f.Graph()
	for r := 0; r < f.NumRouters; r++ {
		if d := g.Degree(RouterID(r)); d != f.Radix {
			t.Fatalf("router %d degree %d, want %d", r, d, f.Radix)
		}
	}
}

func TestFlatFlyChannelCount(t *testing.T) {
	// §4.3: "with N = 1K network ... the flattened butterfly requires
	// 31 x 32 = 992 links" — the paper counts unidirectional channels
	// (the folded Clos figure of 2048 is likewise 1024 up + 1024 down).
	f := mustFF(t, 32, 2)
	if got := f.Graph().CountChannels(); got != 992 {
		t.Fatalf("channels = %d, want 992 unidirectional", got)
	}
}

func TestEquation1Connectivity(t *testing.T) {
	// Verify the constructed graph matches Eq. 1 exactly: in dimension d,
	// router i connects to j = i + (m - (floor(i/k^(d-1)) mod k)) * k^(d-1).
	f := mustFF(t, 4, 3)
	g := f.Graph()
	for i := 0; i < f.NumRouters; i++ {
		for d := 1; d <= f.Dims; d++ {
			pow := 1
			for x := 0; x < d-1; x++ {
				pow *= f.K
			}
			own := (i / pow) % f.K
			for m := 0; m < f.K; m++ {
				j := i + (m-own)*pow
				port := f.PortFor(d, m, 0)
				out := g.Routers[i].Out[port]
				if m == own {
					if out.Kind != Unused {
						t.Fatalf("router %d dim %d self slot is %v, want Unused", i, d, out.Kind)
					}
					continue
				}
				if out.Kind != Network || int(out.Peer) != j {
					t.Fatalf("router %d dim %d m=%d: port connects to %v(%d), want router %d",
						i, d, m, out.Kind, out.Peer, j)
				}
			}
		}
	}
}

func TestFig1dExamples(t *testing.T) {
	// §2.1: in Figure 1(d) (2-ary 4-flat), R4' connects to R5' in dim 1,
	// R6' in dim 2, and R0' in dim 3.
	f := mustFF(t, 2, 4)
	g := f.Graph()
	wants := map[int]int{1: 5, 2: 6, 3: 0}
	for d, peer := range wants {
		own := f.RouterDigit(4, d)
		out := g.Routers[4].Out[f.PortFor(d, 1-own, 0)]
		if out.Kind != Network || int(out.Peer) != peer {
			t.Errorf("R4' dim %d: got peer %d, want %d", d, out.Peer, peer)
		}
	}
}

func TestMinHopsAndPathDiversity(t *testing.T) {
	// §2.2 example: routing from node 0 (0000_2) to node 10 (1010_2) in a
	// 2-ary 4-flat takes hops in dimensions 1 and 3, giving 2! = 2 minimal
	// routes.
	f := mustFF(t, 2, 4)
	a, b := f.RouterOf(0), f.RouterOf(10)
	if h := f.MinHops(a, b); h != 2 {
		t.Errorf("MinHops = %d, want 2", h)
	}
	if dims := f.DiffDims(a, b); len(dims) != 2 || dims[0] != 1 || dims[1] != 3 {
		t.Errorf("DiffDims = %v, want [1 3]", dims)
	}
	if c := f.MinimalRouteCount(a, b); c != 2 {
		t.Errorf("MinimalRouteCount = %d, want 2", c)
	}
	if c := f.MinimalRouteCount(a, a); c != 1 {
		t.Errorf("MinimalRouteCount(self) = %d, want 1", c)
	}
}

func TestMinimalRouteCountFactorial(t *testing.T) {
	f := mustFF(t, 2, 5) // 4 dimensions
	// Routers 0 and NumRouters-1 differ in every digit.
	if c := f.MinimalRouteCount(0, RouterID(f.NumRouters-1)); c != 24 {
		t.Errorf("4 differing dims: route count = %d, want 4! = 24", c)
	}
}

func TestRouterDigitRoundTrip(t *testing.T) {
	f := mustFF(t, 4, 4)
	check := func(rr uint16) bool {
		r := RouterID(int(rr) % f.NumRouters)
		digits := make([]int, f.Dims)
		for d := 1; d <= f.Dims; d++ {
			digits[d-1] = f.RouterDigit(r, d)
		}
		return f.RouterFromDigits(digits) == r
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborIn(t *testing.T) {
	f := mustFF(t, 4, 3)
	check := func(rr uint16, dd, vv uint8) bool {
		r := RouterID(int(rr) % f.NumRouters)
		d := int(dd)%f.Dims + 1
		v := int(vv) % f.K
		j := f.NeighborIn(r, d, v)
		if f.RouterDigit(j, d) != v {
			return false
		}
		// All other digits unchanged.
		for x := 1; x <= f.Dims; x++ {
			if x != d && f.RouterDigit(j, x) != f.RouterDigit(r, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDimOfPortInverse(t *testing.T) {
	for _, m := range []int{1, 2} {
		f := mustFF(t, 4, 2, WithMultiplicity(m))
		for d := 1; d <= f.Dims; d++ {
			for v := 0; v < f.K; v++ {
				for c := 0; c < m; c++ {
					gd, gv := f.DimOfPort(f.PortFor(d, v, c))
					if gd != d || gv != v {
						t.Fatalf("m=%d DimOfPort(PortFor(%d,%d,%d)) = (%d,%d)", m, d, v, c, gd, gv)
					}
				}
			}
		}
		for p := 0; p < f.K; p++ {
			if gd, _ := f.DimOfPort(p); gd != 0 {
				t.Fatalf("terminal port %d classified as dim %d", p, gd)
			}
		}
	}
}

func TestNodeAddressing(t *testing.T) {
	f := mustFF(t, 8, 3)
	for node := 0; node < f.NumNodes; node += 37 {
		r := f.RouterOf(NodeID(node))
		tix := f.TerminalIndex(NodeID(node))
		if f.Node(r, tix) != NodeID(node) {
			t.Fatalf("node %d does not round-trip through (router, terminal)", node)
		}
	}
}

func TestMultiplicityVariant(t *testing.T) {
	// Fig 14(a): a 4-ary 2-flat with doubled inter-router channels.
	f := mustFF(t, 4, 2, WithMultiplicity(2))
	if err := f.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	// Each router pair now has 2 channels each way: 4 routers, C(4,2)=6
	// pairs, 2 copies, 2 directions = 24 channels.
	if got := f.Graph().CountChannels(); got != 24 {
		t.Fatalf("channels = %d, want 24", got)
	}
}

func TestOneDimFB(t *testing.T) {
	// Fig 14(b): radix-8 routers; 4-ary 2-flat needs only 7 ports, so a
	// fifth router scales N from 16 to 20.
	f, err := NewOneDimFB(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes != 20 {
		t.Fatalf("nodes = %d, want 20", f.NumNodes)
	}
	if f.Radix != 8 {
		t.Fatalf("radix = %d, want 8", f.Radix)
	}
	if err := f.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	// Complete graph: 5*4/2 = 10 bidirectional links = 20 channels.
	if got := f.Graph().CountChannels(); got != 20 {
		t.Fatalf("channels = %d, want 20", got)
	}
	if _, err := NewOneDimFB(1, 4); err == nil {
		t.Error("1 router accepted")
	}
	if _, err := NewOneDimFB(4, 0); err == nil {
		t.Error("0 concentration accepted")
	}
}

func TestOneDimEquivalentToFlatFly(t *testing.T) {
	a, err := NewOneDimFB(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := mustFF(t, 4, 2)
	if a.NumNodes != b.NumNodes || a.Radix != b.Radix {
		t.Fatalf("OneDimFB(4,4) should match 4-ary 2-flat: %+v vs radix %d", a, b.Radix)
	}
	if a.Graph().CountChannels() != b.Graph().CountChannels() {
		t.Fatal("channel counts differ between equivalent constructions")
	}
}

func TestLatencyOptions(t *testing.T) {
	f := mustFF(t, 4, 2, WithChannelLatency(5), WithTerminalLatency(3))
	g := f.Graph()
	// Inter-router channels carry the channel latency.
	own := f.RouterDigit(0, 1)
	v := (own + 1) % f.K
	if got := g.Routers[0].Out[f.PortFor(1, v, 0)].Latency; got != 5 {
		t.Errorf("channel latency = %d, want 5", got)
	}
	// Ejection ports carry the terminal latency.
	if got := g.Routers[0].Out[0].Latency; got != 3 {
		t.Errorf("terminal latency = %d, want 3", got)
	}
}

func TestOneDimHelpers(t *testing.T) {
	f, err := NewOneDimFB(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Terminals fill routers in order, and port c+j reaches router j.
	if r := f.Graph().NodeRouter[9]; r != 2 {
		t.Errorf("node 9 attaches to router %d, want 2", r)
	}
	if out := f.Graph().Routers[0].Out[4+3]; out.Peer != 3 {
		t.Errorf("router 0 port 7 reaches router %d, want 3", out.Peer)
	}
}

func TestFlatteningCorrespondence(t *testing.T) {
	// §2.1: the flattened butterfly is built by merging each row of the
	// k-ary n-fly into one router, eliminating intra-row channels and
	// keeping all others. Verify the channel sets correspond exactly:
	// every inter-stage butterfly channel between different rows appears
	// as a flattened-butterfly channel between those routers, and vice
	// versa, with matching multiplicity.
	const k, n = 3, 3
	ff := mustFF(t, k, n)
	bf, err := NewButterfly(k, n)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ a, b RouterID }
	bfChannels := map[pair]int{}
	bg := bf.Graph()
	for r := range bg.Routers {
		_, pos := bf.StageOf(RouterID(r))
		for _, out := range bg.Routers[r].Out {
			if out.Kind != Network {
				continue
			}
			_, peerPos := bf.StageOf(RouterID(out.Peer))
			if pos == peerPos {
				continue // intra-row channel: eliminated by flattening
			}
			bfChannels[pair{RouterID(pos), RouterID(peerPos)}]++
		}
	}
	ffChannels := map[pair]int{}
	fg := ff.Graph()
	for r := range fg.Routers {
		for _, out := range fg.Routers[r].Out {
			if out.Kind == Network {
				ffChannels[pair{RouterID(r), RouterID(out.Peer)}]++
			}
		}
	}
	if len(bfChannels) != len(ffChannels) {
		t.Fatalf("channel pair sets differ: butterfly %d vs flattened %d", len(bfChannels), len(ffChannels))
	}
	for p, c := range bfChannels {
		if ffChannels[p] != c {
			t.Errorf("pair %v: butterfly multiplicity %d vs flattened %d", p, c, ffChannels[p])
		}
	}
}
