package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCableCostCurveFig7(t *testing.T) {
	m := DefaultModel()
	// The paper quotes ~$5.34 per signal for a cable connecting routers
	// within 2 m.
	if got := m.CableCostPerSignal(2); math.Abs(got-5.34) > 0.01 {
		t.Errorf("2m cable = %.2f, want 5.34", got)
	}
	// No repeater up to 6 m.
	if got := m.CableCostPerSignal(6); math.Abs(got-(3.72+0.81*6)) > 1e-9 {
		t.Errorf("6m cable = %.2f, want linear", got)
	}
	// One repeater step just past 6 m.
	just := m.CableCostPerSignal(6.01)
	if math.Abs(just-(3.72+0.81*6.01+3.72)) > 1e-9 {
		t.Errorf("6.01m cable = %.2f, want one repeater step", just)
	}
	// Two repeaters past 12 m.
	if got := m.CableCostPerSignal(12.5); math.Abs(got-(3.72+0.81*12.5+2*3.72)) > 1e-9 {
		t.Errorf("12.5m cable = %.2f, want two repeater steps", got)
	}
	if m.CableCostPerSignal(0) != 0 || m.CableCostPerSignal(-1) != 0 {
		t.Error("non-positive lengths should cost 0")
	}
}

func TestCableCostMonotonic(t *testing.T) {
	m := DefaultModel()
	check := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 100))
		b = math.Abs(math.Mod(b, 100))
		if a > b {
			a, b = b, a
		}
		return m.CableCostPerSignal(a) <= m.CableCostPerSignal(b)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRouterCostTable2(t *testing.T) {
	m := DefaultModel()
	// $390 for a fully used radix-64 router ($90 silicon + $300
	// amortized development).
	if got := m.RouterCost(64, 64); math.Abs(got-390) > 1e-9 {
		t.Errorf("full router = %.2f, want 390", got)
	}
	// Pin-proportional for partially used routers (the paper adjusts the
	// hypercube's router cost by pins).
	if got := m.RouterCost(11, 64); math.Abs(got-390*11.0/64) > 1e-9 {
		t.Errorf("11-port router = %.2f", got)
	}
	// Over-provisioned requests clamp.
	if got := m.RouterCost(100, 64); got != 390 {
		t.Errorf("clamp failed: %v", got)
	}
	if got := m.RouterCost(32, 0); got != 390*0.5 {
		t.Errorf("default radix not applied: %v", got)
	}
}

func TestSignalCostClasses(t *testing.T) {
	m := DefaultModel()
	if m.SignalCost(Backplane, 0) != 1.95 {
		t.Error("backplane signal should cost $1.95")
	}
	if m.SignalCost(LocalCable, 2) != m.CableCostPerSignal(2) {
		t.Error("local cable should follow the cable curve")
	}
	if m.SignalCost(GlobalCable, 10) != m.CableCostPerSignal(10) {
		t.Error("global cable should follow the cable curve")
	}
}

func TestLinkClassString(t *testing.T) {
	if Backplane.String() != "backplane" || LocalCable.String() != "local" ||
		GlobalCable.String() != "global" || LinkClass(9).String() != "unknown" {
		t.Error("LinkClass strings wrong")
	}
}

func TestEdgeTable3(t *testing.T) {
	p := DefaultPackaging()
	// E = sqrt(N/75); 1024 nodes -> ~3.7 m.
	if got := p.Edge(1024); math.Abs(got-math.Sqrt(1024.0/75)) > 1e-9 {
		t.Errorf("Edge(1024) = %v", got)
	}
	if p.Edge(0) != 0 || p.Edge(-5) != 0 {
		t.Error("degenerate sizes should give 0")
	}
}

func TestLocalCableMatchesQuotedPrice(t *testing.T) {
	// Table 3's 2 m local cable must price at the paper's quoted $5.34.
	m, p := DefaultModel(), DefaultPackaging()
	if got := m.SignalCost(LocalCable, p.LocalCableLength); math.Abs(got-5.34) > 0.01 {
		t.Errorf("local cable = %.3f, want 5.34", got)
	}
}

func TestHypercubeCableLengths(t *testing.T) {
	p := DefaultPackaging()
	// 1024 nodes, 10 dims: 7 dims fit in a 128-node cabinet, 3 global.
	lens := p.HypercubeCableLengths(1024, 10)
	if len(lens) != 3 {
		t.Fatalf("got %d global dims, want 3", len(lens))
	}
	e := p.Edge(1024)
	want := []float64{e/2 + 2, e/4 + 2, e/8 + 2}
	for i := range want {
		if math.Abs(lens[i]-want[i]) > 1e-9 {
			t.Errorf("len[%d] = %v, want %v", i, lens[i], want[i])
		}
	}
	if got := p.HypercubeCableLengths(64, 6); got != nil {
		t.Errorf("all-local hypercube should have no global cables, got %v", got)
	}
}

func TestClosLevels(t *testing.T) {
	// Radix-64 modules (32 up / 32 down): 1K fits 2 levels, 2K forces 3
	// (the paper's §4.3 stage step), 32K fits 3, 64K forces 4.
	cases := []struct{ n, want int }{
		{32, 1}, {1024, 2}, {1025, 3}, {2048, 3}, {4096, 3}, {32768, 3}, {65536, 4},
	}
	for _, c := range cases {
		if got := closLevels(c.n, 64); got != c.want {
			t.Errorf("closLevels(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFlatFlyBOMConfigBands(t *testing.T) {
	p := DefaultPackaging()
	b, err := FlatFlyBOM(1024, p)
	if err != nil {
		t.Fatal(err)
	}
	// n'=1, k=32: terminal + one dimension.
	if len(b.Links) != 2 || b.RouterPortsUsed != 63 {
		t.Fatalf("1K FB BOM unexpected: %+v", b)
	}
	if math.Abs(b.RoutersPerNode-1.0/32) > 1e-12 {
		t.Errorf("1K FB routers/node = %v", b.RoutersPerNode)
	}
	b, err = FlatFlyBOM(65536, p)
	if err != nil {
		t.Fatal(err)
	}
	// n'=3, k=16 (Fig 8): dim-1 local (256 nodes = 2 cabinets), dims 2-3 global.
	if len(b.Links) != 4 {
		t.Fatalf("64K FB should have terminal + 3 dims, got %+v", b.Links)
	}
	if b.Links[1].Class != LocalCable {
		t.Errorf("64K FB dim-1 should be local, got %v", b.Links[1].Class)
	}
	for _, g := range b.Links[2:] {
		if g.Class != GlobalCable {
			t.Errorf("64K FB %s should be global", g.Label)
		}
	}
	if _, err := FlatFlyBOM(1<<40, p); err == nil {
		t.Error("impossible size accepted")
	}
}

func TestFoldedClosBOMLinkCount(t *testing.T) {
	p := DefaultPackaging()
	b := FoldedClosBOM(1024, p)
	// §4.3: the 1K folded Clos needs 2048 inter-router links; per node
	// that is 2 unidirectional channels.
	var inter float64
	for _, g := range b.Links[1:] {
		inter += g.PerNode
	}
	if math.Abs(inter-2) > 1e-12 {
		t.Errorf("1K Clos inter-router channels/node = %v, want 2 (2048 total)", inter)
	}
	// 48 routers for 1K: 32 leaves + 16 top.
	if math.Abs(b.RoutersPerNode-48.0/1024) > 1e-12 {
		t.Errorf("1K Clos routers/node = %v, want 48/1024", b.RoutersPerNode)
	}
}

func TestFig11CostComparison(t *testing.T) {
	m, p := DefaultModel(), DefaultPackaging()
	// Headline claims of §4.3/Fig 11, tested as shape (who wins, rough
	// factors), not absolute dollars.
	for _, n := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536} {
		c, err := Compare(n, m, p)
		if err != nil {
			t.Fatal(err)
		}
		if c.FlatFly.TotalPerNode >= c.FoldedClos.TotalPerNode {
			t.Errorf("N=%d: FB (%.1f) should undercut folded Clos (%.1f)",
				n, c.FlatFly.TotalPerNode, c.FoldedClos.TotalPerNode)
		}
		if c.Hypercube.TotalPerNode <= c.FoldedClos.TotalPerNode {
			t.Errorf("N=%d: hypercube (%.1f) should be the most expensive (Clos %.1f)",
				n, c.Hypercube.TotalPerNode, c.FoldedClos.TotalPerNode)
		}
	}
	// 35-38% savings below 1K, rising above 40% for 2K-8K.
	small, err := Compare(1024, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if s := small.SavingsVsClos(); s < 0.30 || s > 0.45 {
		t.Errorf("1K savings = %.2f, want ~0.35", s)
	}
	mid, err := Compare(4096, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if s := mid.SavingsVsClos(); s < 0.40 || s > 0.60 {
		t.Errorf("4K savings = %.2f, want ~0.5", s)
	}
	// The conventional butterfly is the cheapest network for 1K < N <= 4K
	// (2 stages, one inter-router link per node).
	for _, n := range []int{2048, 4096} {
		c, err := Compare(n, m, p)
		if err != nil {
			t.Fatal(err)
		}
		if c.Butterfly.TotalPerNode >= c.FlatFly.TotalPerNode {
			t.Errorf("N=%d: butterfly (%.1f) should undercut FB (%.1f)",
				n, c.Butterfly.TotalPerNode, c.FlatFly.TotalPerNode)
		}
	}
}

func TestFig11StepStructure(t *testing.T) {
	m, p := DefaultModel(), DefaultPackaging()
	// The folded Clos steps up when it gains a level (1K -> 2K); the FB
	// steps when it gains a dimension (1K -> 2K as well, radix 64), and
	// the paper notes the FB's step is smaller (one link added vs two).
	at := func(n int) Comparison {
		c, err := Compare(n, m, p)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := at(1024), at(2048)
	closStep := c2.FoldedClos.TotalPerNode - c1.FoldedClos.TotalPerNode
	ffStep := c2.FlatFly.TotalPerNode - c1.FlatFly.TotalPerNode
	if closStep <= 0 || ffStep <= 0 {
		t.Fatalf("expected cost steps at 1K->2K: clos %+.1f ff %+.1f", closStep, ffStep)
	}
	if ffStep >= closStep {
		t.Errorf("FB step (%.1f) should be smaller than Clos step (%.1f)", ffStep, closStep)
	}
}

func TestFig10LinkFraction(t *testing.T) {
	m, p := DefaultModel(), DefaultPackaging()
	// §4.3/Fig 10(a): link cost dominates — ~80% for FB/Clos/butterfly at
	// scale, ~60% for large hypercubes (routers weigh more there).
	c, err := Compare(16384, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.FlatFly.LinkFraction < 0.6 || c.FoldedClos.LinkFraction < 0.6 {
		t.Errorf("link fraction should dominate: FB %.2f Clos %.2f",
			c.FlatFly.LinkFraction, c.FoldedClos.LinkFraction)
	}
	if c.Hypercube.LinkFraction >= c.FlatFly.LinkFraction {
		t.Errorf("hypercube link fraction (%.2f) should be below FB's (%.2f): routers dominate",
			c.Hypercube.LinkFraction, c.FlatFly.LinkFraction)
	}
}

func TestFig10AvgCableLength(t *testing.T) {
	m, p := DefaultModel(), DefaultPackaging()
	// Fig 10(b): at large N the FB's average cable is longer than the
	// folded Clos's (~22%) and the hypercube's is the shortest.
	c, err := Compare(16384, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.FlatFly.AvgCableLength <= c.FoldedClos.AvgCableLength {
		t.Errorf("FB avg cable (%.2f) should exceed Clos (%.2f)",
			c.FlatFly.AvgCableLength, c.FoldedClos.AvgCableLength)
	}
	if c.Hypercube.AvgCableLength >= c.FoldedClos.AvgCableLength {
		t.Errorf("hypercube avg cable (%.2f) should be below Clos (%.2f): logarithmic distribution",
			c.Hypercube.AvgCableLength, c.FoldedClos.AvgCableLength)
	}
}

func TestFig13FixedNCost(t *testing.T) {
	m, p := DefaultModel(), DefaultPackaging()
	// §5.1.1/Fig 13: for N=4K, cost per node rises steeply with n' —
	// ~45% from n'=1 to n'=2 and ~300% from n'=1 to n'=5 in the paper.
	configs := []struct{ k, np int }{{64, 1}, {16, 2}, {8, 3}, {4, 5}}
	var costs []float64
	for _, c := range configs {
		b := FlatFlyBOMForConfig(4096, c.k, c.np, p)
		costs = append(costs, Price(b, m, p).TotalPerNode)
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] <= costs[i-1] {
			t.Errorf("cost should increase with n': %v", costs)
		}
	}
	if ratio := costs[1] / costs[0]; ratio < 1.2 || ratio > 2.0 {
		t.Errorf("n'=1 -> n'=2 ratio = %.2f, want ~1.45", ratio)
	}
	if ratio := costs[3] / costs[0]; ratio < 2.0 {
		t.Errorf("n'=1 -> n'=5 ratio = %.2f, want large (~4x in the paper)", ratio)
	}
}

func TestFig13AvgCableLengthDecreases(t *testing.T) {
	m, p := DefaultModel(), DefaultPackaging()
	// Fig 13's line plot: average cable length decreases as n' increases
	// (more dimensions are packaged locally).
	configs := []struct{ k, np int }{{64, 1}, {16, 2}, {8, 3}, {4, 5}}
	prev := math.Inf(1)
	for _, c := range configs {
		b := FlatFlyBOMForConfig(4096, c.k, c.np, p)
		avg := Price(b, m, p).AvgCableLength
		if avg > prev+1e-9 {
			t.Errorf("avg cable length should not increase with n': %.3f after %.3f (k=%d)", avg, prev, c.k)
		}
		prev = avg
	}
}

func TestSweep(t *testing.T) {
	m, p := DefaultModel(), DefaultPackaging()
	rows, err := Sweep([]int{1024, 4096}, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].N != 1024 || rows[1].N != 4096 {
		t.Fatalf("sweep rows wrong: %+v", rows)
	}
	if _, err := Sweep([]int{1 << 40}, m, p); err == nil {
		t.Error("impossible sweep accepted")
	}
}

func TestPriceBreakdownConsistency(t *testing.T) {
	m, p := DefaultModel(), DefaultPackaging()
	b, err := FlatFlyBOM(4096, p)
	if err != nil {
		t.Fatal(err)
	}
	br := Price(b, m, p)
	if math.Abs(br.TotalPerNode-(br.RouterPerNode+br.LinkPerNode)) > 1e-9 {
		t.Error("total != router + link")
	}
	if br.LinkFraction <= 0 || br.LinkFraction >= 1 {
		t.Errorf("link fraction %v out of (0,1)", br.LinkFraction)
	}
}

func TestGHCBOMSection23(t *testing.T) {
	// §2.3: without concentration, the (8,8,16) GHC for 1K nodes is far
	// more expensive than the flattened butterfly — concentration reduces
	// cost by roughly a factor of k.
	m, p := DefaultModel(), DefaultPackaging()
	ghc := Price(GHCBOM(1024, []int{8, 8, 16}, p), m, p)
	ff, err := FlatFlyBOM(1024, p)
	if err != nil {
		t.Fatal(err)
	}
	fb := Price(ff, m, p)
	ratio := ghc.TotalPerNode / fb.TotalPerNode
	if ratio < 5 {
		t.Errorf("GHC/FB cost ratio = %.1f, want large (paper: ~k)", ratio)
	}
	// The GHC's link inventory: 7+7+15 = 29 channels per node.
	var perNode float64
	for _, g := range GHCBOM(1024, []int{8, 8, 16}, p).Links[1:] {
		perNode += g.PerNode
	}
	if perNode != 29 {
		t.Errorf("GHC channels/node = %v, want 29", perNode)
	}
	// Dimensions within a cabinet are backplane.
	b := GHCBOM(1024, []int{8, 8, 16}, p)
	if b.Links[1].Class != Backplane || b.Links[2].Class != Backplane {
		t.Error("first two GHC dims (8, 64 nodes) should be backplane")
	}
	if b.Links[3].Class != GlobalCable {
		t.Error("third GHC dim (1024 nodes) should be global")
	}
}

func TestDilatedButterflyBOMSection6(t *testing.T) {
	// §6: dilating the butterfly "significantly increase[s] the cost of
	// the network with additional links as well as routers" — at 4K the
	// 2-dilated butterfly must cost well above the plain butterfly and
	// above the flattened butterfly, which achieves the same path
	// diversity by flattening instead.
	m, p := DefaultModel(), DefaultPackaging()
	plain := Price(ButterflyBOM(4096, p), m, p)
	dilated := Price(DilatedButterflyBOM(4096, 2, p), m, p)
	ffBOM, err := FlatFlyBOM(4096, p)
	if err != nil {
		t.Fatal(err)
	}
	fb := Price(ffBOM, m, p)
	if dilated.TotalPerNode < 1.5*plain.TotalPerNode {
		t.Errorf("2-dilated butterfly (%.1f) should cost well above plain (%.1f)",
			dilated.TotalPerNode, plain.TotalPerNode)
	}
	if dilated.TotalPerNode <= fb.TotalPerNode {
		t.Errorf("2-dilated butterfly (%.1f) should cost above the flattened butterfly (%.1f)",
			dilated.TotalPerNode, fb.TotalPerNode)
	}
	// Dilation 1 is the identity.
	if got := Price(DilatedButterflyBOM(4096, 1, p), m, p); got.TotalPerNode != plain.TotalPerNode {
		t.Error("dilation 1 should match the plain butterfly")
	}
}
