// The tests in this package check the channel-load bound against the
// closed forms it replaces and against the topologies' own hop counts,
// and validate the cycle-accurate simulator against it: each measured
// saturation throughput must land in a band of the bound.
package analysis

import (
	"math"
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// bound is LoadBound's saturation and mean hop count, failing t on error.
func bound(t *testing.T, g *topo.Graph, p traffic.Pattern, rule Rule) (sat, hops float64) {
	t.Helper()
	sat, hops, err := LoadBound(g, p, rule)
	if err != nil {
		t.Fatal(err)
	}
	return sat, hops
}

// inBand asserts measured lies in [lo, hi] times predicted.
func inBand(t *testing.T, name string, measured, predicted, lo, hi float64) {
	t.Helper()
	if !(measured >= lo*predicted && measured <= hi*predicted) {
		t.Errorf("%s: measured %.3f, want within [%.2f, %.2f] x %.4f = [%.3f, %.3f]",
			name, measured, lo, hi, predicted, lo*predicted, hi*predicted)
	}
}

// near asserts got == want within 1e-12.
func near(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %.15g, want %.15g", name, got, want)
	}
}

// must returns v, panicking on a constructor error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// neighborPattern sends every terminal of each Slim Fly router to the
// same slot of the router's first neighbor: all p flows of a router
// share the one direct channel, the only minimal path, so the knee is
// 1/p.
func neighborPattern(s *topo.SlimFly) traffic.Pattern {
	table := make([]topo.NodeID, s.NumNodes)
	for node := range table {
		r := node / s.P
		table[node] = topo.NodeID(int(s.Adjacency(topo.RouterID(r))[0])*s.P + node%s.P)
	}
	return traffic.NewFixed("SF-NBR", table)
}

// TestFormulaValues holds the bound to each closed form it replaced, at
// that form's parameters, and pins where it departs from a routing that
// is not graph-shortest with even splits.
func TestFormulaValues(t *testing.T) {
	ff := must(topo.NewFlatFly(32, 2))
	wc32, ur1024 := traffic.NewWorstCase(32, 32), traffic.NewUniform(1024)
	sat, _ := bound(t, ff.Graph(), wc32, Minimal)
	near(t, "32-ary 2-flat WC MIN (1/k, §3.2)", sat, 1.0/32)
	sat, _ = bound(t, ff.Graph(), ur1024, Minimal)
	near(t, "32-ary 2-flat UR MIN (capacity)", sat, 1)
	for _, c := range topo.ConfigsForN(256) {
		f := must(topo.NewFlatFly(c.K, c.N))
		sat, _ := bound(t, f.Graph(), traffic.NewUniform(f.NumNodes), Valiant)
		near(t, f.Name()+" UR VAL", sat, 0.5)
	}
	// Tapered Clos: remote traffic t(1-t/N) over u uplinks, u/(t(1-t/N)).
	for _, c := range []struct{ t, u, leaves, middles int }{{16, 8, 16, 4}, {32, 16, 32, 8}} {
		fc := must(topo.NewFoldedClos(c.t, c.u, c.leaves, c.middles))
		sat, _ := bound(t, fc.Graph(), traffic.NewUniform(fc.NumNodes), Minimal)
		near(t, fc.Name()+" UR", sat, float64(c.u)/(float64(c.t)*(1-float64(c.t)/float64(fc.NumNodes))))
	}
	b := must(topo.NewButterfly(8, 2))
	sat, _ = bound(t, b.Graph(), traffic.NewWorstCase(8, 8), Minimal)
	near(t, "8-ary 2-fly WC (1/k)", sat, 1.0/8)
	h := must(topo.NewConcentratedHypercube(4, 8))
	sat, _ = bound(t, h.Graph(), traffic.NewWorstCase(8, 16), Minimal)
	near(t, "hypercube (4,8) WC (1/c)", sat, 1.0/8)
	for _, q := range []int{5, 7} {
		s := must(topo.NewSlimFly(q, 0))
		sat, _ := bound(t, s.Graph(), neighborPattern(s), Minimal)
		near(t, s.Name()+" neighbor MIN (1/p)", sat, 1/float64(s.P))
	}

	// VAL on the worst case: a router's k flits travel 2(k-1)/k hops on
	// average, 2(k-1) flit-hops over its k-1 channels, a load of exactly
	// 2: 1/2, not the (k-1)/2k of a two-hops-per-packet count.
	sat, _ = bound(t, ff.Graph(), wc32, Valiant)
	near(t, "32-ary 2-flat WC VAL", sat, 0.5)
	// DOR sends tornado's distance-4 tie one way round the 8-ring, so each
	// channel carries 4 flows (0.25); the even split halves that.
	tor := must(topo.NewTorus(8, 1))
	sat, _ = bound(t, tor.Graph(), traffic.NewTornado(1, 8), Minimal)
	near(t, "8-ring tornado (DOR 0.25)", sat, 0.5)
	// Dragonfly MIN is hierarchical (local-global-local), not
	// graph-shortest: its 1/(a*p) = 0.125 and h/(2p) = 0.5 are not what
	// even splits over shortest paths give on DF(h=2, a=4, p=2).
	df := must(topo.NewDragonfly(2, 4, 2))
	wcDF := traffic.NewWorstCase(df.A*df.P, df.Groups)
	sat, _ = bound(t, df.Graph(), wcDF, Minimal)
	near(t, "DF(2,4,2) WC MIN (hierarchical 0.125)", sat, 12.0/47)
	sat, _ = bound(t, df.Graph(), wcDF, Valiant)
	near(t, "DF(2,4,2) WC VAL (hierarchical 0.5)", sat, 18.0/47)

	if CreditLimitedChannelRate(64, 1, 1) != 1 {
		t.Error("deep buffers should not be credit-limited")
	}
	if got := CreditLimitedChannelRate(4, 8, 8); math.Abs(got-4.0/17) > 1e-12 {
		t.Errorf("CreditLimitedChannelRate = %v, want 4/17", got)
	}
	if _, _, err := LoadBound(ff.Graph(), must(traffic.NewShuffle(1024)), Minimal); err == nil {
		t.Error("a pattern without a destination law was bounded")
	}
	// A last-stage router of the one-way butterfly reaches no first stage.
	if _, _, err := LoadBound(b.Graph(), traffic.NewUniform(b.NumNodes), Valiant); err == nil {
		t.Error("Valiant on the butterfly was bounded")
	}
}

// TestLoadBoundMeanHops holds the bound's summed load per terminal to
// each topology's own uniform hop count, and Valiant's to the O(R^3)
// triple enumeration.
func TestLoadBoundMeanHops(t *testing.T) {
	var flats []*topo.FlatFly
	for k := 4; k <= 16; k++ {
		flats = append(flats, must(topo.NewFlatFly(k, 2)))
	}
	flats = append(flats, must(topo.NewFlatFly(4, 4)))
	for _, f := range flats {
		ur := traffic.NewUniform(f.NumNodes)
		_, hops := bound(t, f.Graph(), ur, Minimal)
		near(t, f.Name()+" MIN hops", hops, f.AvgUniformMinHops())
		_, hops = bound(t, f.Graph(), ur, Valiant)
		near(t, f.Name()+" VAL hops", hops, routing.ValiantHopsFromDist(f.NumRouters, func(a, b int) int {
			return f.MinHops(topo.RouterID(a), topo.RouterID(b))
		}))
	}

	s := must(topo.NewSlimFly(5, 2))
	ur := traffic.NewUniform(s.NumNodes)
	_, hops := bound(t, s.Graph(), ur, Minimal)
	near(t, s.Name()+" MIN hops", hops, s.AvgUniformMinHops())
	dist := make([][]int, s.NumRouters)
	for r := range dist {
		dist[r] = s.MinHopsFrom(topo.RouterID(r))
	}
	_, hops = bound(t, s.Graph(), ur, Valiant)
	near(t, s.Name()+" VAL hops", hops, routing.ValiantHopsFromDist(s.NumRouters, func(a, b int) int { return dist[a][b] }))

	for _, kn := range [][2]int{{8, 2}, {4, 3}} {
		b := must(topo.NewButterfly(kn[0], kn[1]))
		_, hops := bound(t, b.Graph(), traffic.NewUniform(b.NumNodes), Minimal)
		near(t, b.Name()+" hops", hops, b.AvgHops())
	}
	for _, fc := range []*topo.FoldedClos{must(topo.NewFoldedClos(16, 8, 16, 4)), must(topo.NewFoldedClos(8, 4, 8, 2))} {
		_, hops := bound(t, fc.Graph(), traffic.NewUniform(fc.NumNodes), Minimal)
		near(t, fc.Name()+" hops", hops, fc.AvgUniformHops())
	}
	h := must(topo.NewHypercube(6))
	_, hops = bound(t, h.Graph(), traffic.NewUniform(h.NumNodes), Minimal)
	near(t, h.Name()+" hops", hops, h.AvgUniformHops())
}

func TestSimulatorMatchesFlatFlyModels(t *testing.T) {
	f, err := topo.NewFlatFly(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	wc := traffic.NewWorstCase(f.K, f.NumRouters)
	ur := traffic.NewUniform(f.NumNodes)
	wcMin, _ := bound(t, f.Graph(), wc, Minimal)
	wcVal, _ := bound(t, f.Graph(), wc, Valiant)
	urMin, _ := bound(t, f.Graph(), ur, Minimal)
	urVal, _ := bound(t, f.Graph(), ur, Valiant)

	min, err := sim.SaturationThroughput(f.Graph(), routing.NewMinAD(f), cfg, wc, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	inBand(t, "FB WC minimal", min, wcMin, 0.75, 1.25)

	clos, err := sim.SaturationThroughput(f.Graph(), routing.NewClosAD(f), cfg, wc, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	inBand(t, "FB WC CLOS AD", clos, wcVal, 0.80, 1.07)

	val, err := sim.SaturationThroughput(f.Graph(), routing.NewValiant(f), cfg, ur, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	inBand(t, "FB UR VAL", val, urVal, 0.85, 1.15)

	urSat, err := sim.SaturationThroughput(f.Graph(), routing.NewMinAD(f), cfg, ur, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	// Saturation measurement at exactly the critical load loses a few
	// percent to finite buffers; allow 10%.
	inBand(t, "FB UR capacity", urSat, urMin, 0.90, 1.10)
}

func TestSimulatorMatchesClosModel(t *testing.T) {
	fc, err := topo.NewFoldedClos(16, 8, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	ur := traffic.NewUniform(fc.NumNodes)
	sat, err := sim.SaturationThroughput(fc.Graph(), routing.NewFoldedClosAdaptive(fc), sim.DefaultConfig(), ur, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := bound(t, fc.Graph(), ur, Minimal)
	inBand(t, "tapered Clos UR", sat, pred, 0.88, 1.12)
}

func TestSimulatorMatchesButterflyModel(t *testing.T) {
	b, err := topo.NewButterfly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	wc := traffic.NewWorstCase(8, 8)
	sat, err := sim.SaturationThroughput(b.Graph(), routing.NewButterflyDest(b), sim.DefaultConfig(), wc, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := bound(t, b.Graph(), wc, Minimal)
	inBand(t, "butterfly WC", sat, pred, 0.80, 1.20)
}

func TestSimulatorMatchesTornadoModel(t *testing.T) {
	tor, err := topo.NewTorus(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Measure just below the predicted saturation point with age
	// arbitration (round-robin suffers post-saturation instability).
	cfg := sim.DefaultConfig()
	cfg.AgeArbiter = true
	sat, err := sim.SaturationThroughput(tor.Graph(), routing.NewTorusDOR(tor), cfg,
		traffic.NewTornado(1, 8), 1500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// DOR sends every flow its 4 hops the same way round the 8-ring, so
	// each channel carries 4 flows: 1/4. The bound's even split of the
	// distance tie gives 1/2 (TestFormulaValues).
	inBand(t, "torus tornado", sat, 0.25, 0.80, 1.20)
}

func TestSimulatorMatchesConcentratedHypercubeModel(t *testing.T) {
	h, err := topo.NewConcentratedHypercube(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	wc := traffic.NewWorstCase(8, 16)
	sat, err := sim.SaturationThroughput(h.Graph(), routing.NewECube(h), sim.DefaultConfig(), wc, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent router groups differ in one bit for even groups and more
	// for odd ones, so the achieved rate sits between 1/c and 2/c.
	pred, _ := bound(t, h.Graph(), wc, Minimal)
	inBand(t, "concentrated hypercube WC", sat, pred, 0.8, 2.6)
}

func TestSimulatorMatchesCreditModel(t *testing.T) {
	// A single saturated stream across one 8-cycle channel with 4 credits
	// sustains ~4/17 of the channel.
	f, err := topo.NewFlatFly(4, 2, topo.WithChannelLatency(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Seed: 1, BufPerPort: 4}
	tab := make([]topo.NodeID, 16)
	for i := range tab {
		tab[i] = topo.NodeID(i)
	}
	tab[0] = 4
	n, err := sim.New(f.Graph(), routing.NewMinAD(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetSource(traffic.NewBernoulli(traffic.NewFixed("stream", tab))); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, _ int64) {
		if p.Src == 0 {
			delivered++
		}
	}})
	if err := n.InjectAt(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := n.InjectAt(0, n.Cycle(), 4); err != nil {
			t.Fatal(err)
		}
		n.Step()
	}
	rate := float64(delivered) / 3000
	inBand(t, "credit-limited stream", rate, CreditLimitedChannelRate(4, 8, 8), 0.85, 1.15)
}
