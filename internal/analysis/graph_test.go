// Analytic-evaluation cross-checks: the graph-analytic metrics must
// reproduce every closed-form hop average the simulator is already
// validated against, the orbit-accelerated path must agree bit for bit
// with the brute-force all-sources sweep for every family, and a
// 100k-endpoint instance must cost one BFS per orbit.
package analysis_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"flatnet/internal/analysis"
	"flatnet/internal/topo"
)

// relEq asserts |got-want| <= tol*max(|want|,1).
func relEq(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	scale := math.Max(math.Abs(want), 1)
	if math.Abs(got-want) > tol*scale {
		t.Errorf("%s: got %.9f, want %.9f", name, got, want)
	}
}

// TestAnalyticMatchesClosedForms holds the analytic AvgHops of every
// seed topology family to the same closed-form averages the zero-load
// oracle uses, plus the structural constants (diameter, channel count)
// each family is defined by.
func TestAnalyticMatchesClosedForms(t *testing.T) {
	f, err := topo.NewFlatFly(8, 2) // 64 nodes, 8 routers, fully connected
	if err != nil {
		t.Fatal(err)
	}
	m, err := analysis.AnalyzeTopology(f)
	if err != nil {
		t.Fatal(err)
	}
	relEq(t, "flatfly avg hops", m.AvgHops, f.AvgUniformMinHops(), 1e-12)
	if m.Diameter != 1 {
		t.Errorf("8-ary 2-flat diameter %d, want 1", m.Diameter)
	}
	if m.Channels != 8*7 {
		t.Errorf("8-ary 2-flat channels %d, want 56", m.Channels)
	}

	b, err := topo.NewButterfly(8, 2) // 64 nodes, unidirectional stages
	if err != nil {
		t.Fatal(err)
	}
	m, err = analysis.AnalyzeTopology(b)
	if err != nil {
		t.Fatal(err)
	}
	relEq(t, "butterfly avg hops", m.AvgHops, b.AvgHops(), 1e-12)

	fc, err := topo.NewFoldedClos(8, 4, 8, 2) // 64 nodes, 2:1 taper
	if err != nil {
		t.Fatal(err)
	}
	m, err = analysis.AnalyzeTopology(fc)
	if err != nil {
		t.Fatal(err)
	}
	relEq(t, "folded Clos avg hops", m.AvgHops, fc.AvgUniformHops(), 1e-12)

	h, err := topo.NewHypercube(6) // 64 nodes
	if err != nil {
		t.Fatal(err)
	}
	m, err = analysis.AnalyzeTopology(h)
	if err != nil {
		t.Fatal(err)
	}
	relEq(t, "hypercube avg hops", m.AvgHops, h.AvgUniformHops(), 1e-12)
	if m.Diameter != 6 {
		t.Errorf("6-cube diameter %d, want 6", m.Diameter)
	}
	// The 6-cube's bisection is known exactly: 32 bidirectional links =
	// 64 unidirectional channels, met by the ID-prefix cut and by the
	// spectral bound (lambda_2 of the weight-2 multigraph Laplacian is 4).
	if m.BisectionUpperChannels != 64 {
		t.Errorf("6-cube bisection upper %.3f channels, want 64", m.BisectionUpperChannels)
	}
	relEq(t, "6-cube spectral bisection lower", m.BisectionLowerChannels, 64, 1e-3)

	s, err := topo.NewSlimFly(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err = analysis.AnalyzeTopology(s)
	if err != nil {
		t.Fatal(err)
	}
	relEq(t, "slim fly avg hops", m.AvgHops, s.AvgUniformMinHops(), 1e-12)
	if m.Diameter != 2 {
		t.Errorf("SF(q=5) diameter %d, want 2", m.Diameter)
	}

	// Dragonfly routing is hierarchical (local-global-local), so its
	// AvgUniformMinHops is an upper bound on the true graph average the
	// analytic sweep measures — two-global shortcuts exist.
	d, err := topo.NewDragonfly(0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err = analysis.AnalyzeTopology(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgHops > d.AvgUniformMinHops()+1e-12 {
		t.Errorf("dragonfly graph avg hops %.6f exceeds hierarchical %.6f", m.AvgHops, d.AvgUniformMinHops())
	}
	if m.Diameter > d.Diameter() {
		t.Errorf("dragonfly graph diameter %d exceeds hierarchical %d", m.Diameter, d.Diameter())
	}
	if m.Diameter > 3 {
		t.Errorf("dragonfly diameter %d, want <= 3", m.Diameter)
	}
}

// orbitCases is every spec-table family at two sizes, the variants that
// change the symmetry argument included (parallel channels, concentration,
// mixed radices, taper, dilation, the doubled links of a 2-ary torus, an
// unbalanced dragonfly). sources is the number of orbit representatives
// that inject, which is what one evaluation may cost in BFS runs.
var orbitCases = []struct {
	family  string
	sources int
	build   func() (topo.Topology, error)
}{
	{"flatfly", 1, func() (topo.Topology, error) { return topo.NewFlatFly(4, 3) }},
	{"flatfly", 1, func() (topo.Topology, error) { return topo.NewFlatFly(4, 2, topo.WithMultiplicity(2)) }},
	{"butterfly", 1, func() (topo.Topology, error) { return topo.NewButterfly(4, 3) }},
	{"butterfly", 1, func() (topo.Topology, error) { return topo.NewDilatedButterfly(2, 3, 2) }},
	{"foldedclos", 1, func() (topo.Topology, error) { return topo.NewFoldedClos(4, 4, 6, 4) }},
	{"foldedclos", 1, func() (topo.Topology, error) { return topo.NewFoldedClos(8, 4, 8, 2) }}, // 2:1 taper, 2 links per pair
	{"hypercube", 1, func() (topo.Topology, error) { return topo.NewHypercube(5) }},
	{"hypercube", 1, func() (topo.Topology, error) { return topo.NewConcentratedHypercube(4, 3) }},
	{"torus", 1, func() (topo.Topology, error) { return topo.NewTorus(5, 2) }},
	{"torus", 1, func() (topo.Topology, error) { return topo.NewTorus(2, 3) }},
	{"ghc", 1, func() (topo.Topology, error) { return topo.NewGHC([]int{4, 4}) }},
	{"ghc", 1, func() (topo.Topology, error) { return topo.NewGHC([]int{3, 4, 5}) }},
	{"slimfly", 6, func() (topo.Topology, error) { return topo.NewSlimFly(5, 2) }},
	{"slimfly", 8, func() (topo.Topology, error) { return topo.NewSlimFly(7, 0) }},
	{"dragonfly", 4, func() (topo.Topology, error) { return topo.NewDragonfly(0, 0, 2) }},
	{"dragonfly", 5, func() (topo.Topology, error) { return topo.NewDragonfly(2, 5, 2) }},
}

// TestAnalyticOrbitMatchesSweep holds every family's RouterOrbits claim to
// the brute-force all-sources sweep: the whole Metrics struct must be
// bit-identical (hop and path sums are integers below 2^53, the spectral
// fields depend on the graph alone), and the orbit path must have swept
// exactly one BFS source per injecting representative.
func TestAnalyticOrbitMatchesSweep(t *testing.T) {
	for _, tc := range orbitCases {
		tp, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		om, swept, err := analysis.AnalyzeTopologyCounting(tp)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name(), err)
		}
		fm, err := analysis.Analyze(tp.Graph())
		if err != nil {
			t.Fatalf("%s: %v", tp.Name(), err)
		}
		if om != fm {
			t.Errorf("%s: orbit %+v\n  vs all-sources %+v", tp.Name(), om, fm)
		}
		if swept != tc.sources {
			t.Errorf("%s: swept %d BFS sources, want %d", tp.Name(), swept, tc.sources)
		}
	}
}

// TestAnalyticFlatFlyOneSource is the paper's own family at the size the
// benchmark evaluates: the 16-ary 4-flat (65,536 terminals, 4,096 routers)
// is one orbit, so it costs one BFS, and the result meets the closed forms
// (i! minimal routes between routers i digits apart, §2.2).
func TestAnalyticFlatFlyOneSource(t *testing.T) {
	f, err := topo.NewFlatFly(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, swept, err := analysis.AnalyzeTopologyCounting(f)
	if err != nil {
		t.Fatal(err)
	}
	if swept != 1 {
		t.Errorf("swept %d BFS sources, want 1", swept)
	}
	if m.Diameter != 3 {
		t.Errorf("diameter %d, want 3", m.Diameter)
	}
	relEq(t, "16-ary 4-flat avg hops", m.AvgHops, f.AvgUniformMinHops(), 1e-12)
	// 3 dimensions, each differing with probability 15/16: E[i!].
	p, q := 15.0/16, 1.0/16
	relEq(t, "16-ary 4-flat path diversity", m.PathDiversity, q*q*q+3*p*q*q+3*p*p*q*2+p*p*p*6, 1e-12)
}

// TestSpectralFieldsPinned pins both bisection fields of the ten flatbench
// analytic_points design points: any change to the order of the
// operator's additions moves one of them. The upper literals date from
// before apply gained its register accumulator and have never moved. The
// lower literals were re-pinned when λ₂ moved from a power iteration to
// Lanczos, which converges onto the exact values (q³ for Slim Fly, kⁿ/2
// for the flattened butterfly) where the power quotient stopped up to
// 2e-6 relative above them. Under -short the two Slim Flies above q=29
// are skipped.
func TestSpectralFieldsPinned(t *testing.T) {
	for _, tc := range []struct {
		name         string
		large        bool // skipped under -short
		generic      bool // analysed through the all-sources path, as flatbench does
		build        func() (topo.Topology, error)
		lower, upper uint64
	}{
		{"slimfly q=29", false, false, func() (topo.Topology, error) { return topo.NewSlimFly(29, 0) }, 0x40d7d13fffffffe2, 0x40d7d88000000000},
		{"slimfly q=37", true, false, func() (topo.Topology, error) { return topo.NewSlimFly(37, 0) }, 0x40e8bba00000004b, 0x40e8e54000000000},
		{"slimfly q=43", true, false, func() (topo.Topology, error) { return topo.NewSlimFly(43, 0) }, 0x40f3692ffffffff3, 0x40f3816000000000},
		{"dragonfly h=6", false, false, func() (topo.Topology, error) { return topo.NewDragonfly(0, 0, 6) }, 0x4098c5c9759d2adf, 0x40a5f00000000000},
		{"dragonfly h=8", false, false, func() (topo.Topology, error) { return topo.NewDragonfly(0, 0, 8) }, 0x40b3365352670481, 0x40c0c00000000000},
		{"flatfly 32-ary 3-flat", false, false, func() (topo.Topology, error) { return topo.NewFlatFly(32, 3) }, 0x40cfffffffffffcc, 0x40d0000000000000},
		{"flatfly 64-ary 2-flat", false, false, func() (topo.Topology, error) { return topo.NewFlatFly(64, 2) }, 0x40a0000000000002, 0x40a0000000000000},
		{"flatfly 16-ary 4-flat", false, false, func() (topo.Topology, error) { return topo.NewFlatFly(16, 4) }, 0x40e0000000000004, 0x40e0000000000000},
		{"foldedclos 4096 radix 32", false, false, func() (topo.Topology, error) { return topo.TaperedClosForNodes(4096, 32) }, 0, 0x40a0000000000000},
		{"slimfly q=19 generic", false, true, func() (topo.Topology, error) { return topo.NewSlimFly(19, 0) }, 0x40bacb00000000e4, 0x40bade0000000000},
	} {
		if tc.large && testing.Short() {
			continue
		}
		tp, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var m analysis.Metrics
		if tc.generic {
			m, err = analysis.Analyze(tp.Graph())
		} else {
			m, err = analysis.AnalyzeTopology(tp)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := math.Float64bits(m.BisectionLowerChannels); got != tc.lower {
			t.Errorf("%s: bisection lower %v (%#016x), want %v (%#016x)", tc.name,
				m.BisectionLowerChannels, got, math.Float64frombits(tc.lower), tc.lower)
		}
		if got := math.Float64bits(m.BisectionUpperChannels); got != tc.upper {
			t.Errorf("%s: bisection upper %v (%#016x), want %v (%#016x)", tc.name,
				m.BisectionUpperChannels, got, math.Float64frombits(tc.upper), tc.upper)
		}
	}
}

// TestSpectralLowerBelowUpper holds the two bisection bounds of every
// spec-table family at two sizes in order. Where the spectral bound is
// exact, as on the complete graph of a 64-ary 2-flat (added to the list),
// Lanczos may land an ulp or two above the cut it equals, hence the 1e-12
// slack.
func TestSpectralLowerBelowUpper(t *testing.T) {
	builds := []func() (topo.Topology, error){func() (topo.Topology, error) { return topo.NewFlatFly(64, 2) }}
	for _, tc := range orbitCases {
		builds = append(builds, tc.build)
	}
	for _, build := range builds {
		tp, err := build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := analysis.AnalyzeTopology(tp)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name(), err)
		}
		if m.BisectionLowerChannels > m.BisectionUpperChannels*(1+1e-12) {
			t.Errorf("%s: bisection lower %v above upper %v", tp.Name(), m.BisectionLowerChannels, m.BisectionUpperChannels)
		}
	}
}

// badOrbits is a user topology whose RouterOrbits claim is malformed.
type badOrbits struct {
	topo.Topology
	reps  []topo.RouterID
	sizes []int
}

func (b badOrbits) RouterOrbits() ([]topo.RouterID, []int) { return b.reps, b.sizes }

// TestAnalyticBadOrbits feeds malformed orbit claims through both entry
// points: each must come back as a structured analysis error, never a
// panic.
func TestAnalyticBadOrbits(t *testing.T) {
	f, err := topo.NewFlatFly(4, 2) // 4 routers
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		reps  []topo.RouterID
		sizes []int
	}{
		{"length mismatch", []topo.RouterID{0}, []int{2, 2}},
		{"representative past the end", []topo.RouterID{4}, []int{4}},
		{"negative representative", []topo.RouterID{-1}, []int{4}},
		{"zero size", []topo.RouterID{0, 1}, []int{4, 0}},
		{"negative size", []topo.RouterID{0, 1}, []int{5, -1}},
		{"sizes short of the router count", []topo.RouterID{0}, []int{3}},
		{"sizes past the router count", []topo.RouterID{0}, []int{5}},
	} {
		_, direct := analysis.AnalyzeWithOrbits(f.Graph(), tc.reps, tc.sizes)
		_, viaTopology := analysis.AnalyzeTopology(badOrbits{f, tc.reps, tc.sizes})
		for _, err := range []error{direct, viaTopology} {
			if err == nil || !strings.HasPrefix(err.Error(), "analysis: ") {
				t.Errorf("%s: got %v, want an analysis: error", tc.name, err)
			}
		}
	}
}

// TestAnalytic100k evaluates a 100k-endpoint Slim Fly — far beyond what
// cycle simulation could touch interactively — and sanity-checks the
// metrics. SF(q=43) has 3698 routers of degree 65; the default
// concentration gives 122,034 terminals.
func TestAnalytic100k(t *testing.T) {
	start := time.Now()
	s, err := topo.NewSlimFly(43, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, swept, err := analysis.AnalyzeTopologyCounting(s)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("SF(q=43): %d terminals, %d routers, diameter %d, avg hops %.4f, diversity %.2f, bisection [%.0f, %.0f] channels in %v",
		m.Nodes, m.Routers, m.Diameter, m.AvgHops, m.PathDiversity,
		m.BisectionLowerChannels, m.BisectionUpperChannels, elapsed)
	if m.Nodes < 100_000 {
		t.Errorf("only %d terminals, want >= 100k", m.Nodes)
	}
	if m.Diameter != 2 {
		t.Errorf("diameter %d, want 2", m.Diameter)
	}
	if m.AvgHops <= 1 || m.AvgHops >= 2 {
		t.Errorf("avg hops %.4f outside (1, 2)", m.AvgHops)
	}
	if m.PathDiversity < 1 {
		t.Errorf("path diversity %.3f < 1", m.PathDiversity)
	}
	if m.BisectionLowerChannels > m.BisectionUpperChannels {
		t.Errorf("bisection lower %.1f above upper %.1f", m.BisectionLowerChannels, m.BisectionUpperChannels)
	}
	// The cost gate is a count, not a wall clock: one BFS per orbit of
	// the translation group, q+1 = 44 of them instead of 3698.
	if swept != s.Q+1 {
		t.Errorf("swept %d BFS sources, want q+1 = %d", swept, s.Q+1)
	}
}
