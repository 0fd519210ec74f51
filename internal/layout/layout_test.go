package layout

import (
	"math"
	"testing"

	"flatnet/internal/cost"
	"flatnet/internal/topo"
)

func TestManhattan(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := a.Manhattan(b); d != 7 {
		t.Fatalf("Manhattan = %v, want 7", d)
	}
	if d := b.Manhattan(a); d != 7 {
		t.Fatal("Manhattan not symmetric")
	}
	if d := a.Manhattan(a); d != 0 {
		t.Fatal("self distance not zero")
	}
}

func TestFloorPlanNearSquare(t *testing.T) {
	p := cost.DefaultPackaging()
	for _, cabinets := range []int{1, 2, 8, 32, 512} {
		f := NewFloorPlan(cabinets, p)
		if f.Cols*f.Rows < cabinets {
			t.Fatalf("%d cabinets: grid %dx%d too small", cabinets, f.Cols, f.Rows)
		}
		width := float64(f.Cols) * f.PitchX
		depth := float64(f.Rows) * f.PitchY
		aspect := math.Max(width/depth, depth/width)
		if cabinets >= 8 && aspect > 2.5 {
			t.Errorf("%d cabinets: aspect %0.2f too elongated (%dx%d)", cabinets, aspect, f.Cols, f.Rows)
		}
	}
	if f := NewFloorPlan(0, p); f.Cabinets != 1 {
		t.Error("degenerate cabinet count not clamped")
	}
}

func TestFloorPlanEdgeTracksAnalyticE(t *testing.T) {
	// The measured floor edge should be within ~2x of the paper's
	// E = sqrt(N/D) for a 1024-node machine (8 cabinets).
	p := cost.DefaultPackaging()
	f := NewFloorPlan(8, p)
	analytic := p.Edge(1024)
	if f.Edge() < analytic/2 || f.Edge() > analytic*2 {
		t.Errorf("floor edge %.2f vs analytic E %.2f", f.Edge(), analytic)
	}
}

func TestPlaceFlatFlyDim1Local(t *testing.T) {
	// In a 16-ary 4-flat slice we cannot afford 64K nodes; use an 8-ary
	// 3-flat (512 nodes, 64 routers, 2 dims). Dimension-1 groups are 8
	// consecutive routers = 64 consecutive nodes, i.e. within one cabinet
	// (128 nodes): all dim-1 channels must be backplane.
	f, err := topo.NewFlatFly(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultPackaging()
	pl, err := PlaceFlatFly(f, p)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Graph()
	for r := 0; r < f.NumRouters; r++ {
		for port, out := range g.Routers[r].Out {
			if out.Kind != topo.Network {
				continue
			}
			d, _ := f.DimOfPort(port)
			l, err := pl.LinkLength(topo.RouterID(r), port)
			if err != nil {
				t.Fatal(err)
			}
			if d == 1 && l != 0 {
				t.Fatalf("router %d dim-1 channel has cable length %.2f, want backplane", r, l)
			}
		}
	}
	st := pl.Stats()
	if st.Channels != f.Graph().CountChannels() {
		t.Fatalf("stats channels %d, want %d", st.Channels, f.Graph().CountChannels())
	}
	if st.Backplane == 0 || st.Cables == 0 {
		t.Fatalf("expected both backplane and cable channels: %+v", st)
	}
}

func TestPlaceFlatFlyMeasuredLavgNearAnalytic(t *testing.T) {
	// §4.2 approximates FB global cable length as E/3. The measured mean
	// over an 8-ary 3-flat should land within a factor ~2 of it.
	f, err := topo.NewFlatFly(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultPackaging()
	pl, err := PlaceFlatFly(f, p)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	analytic := pl.Plan.Edge() / 3
	if st.AvgLength < analytic/2 || st.AvgLength > analytic*2.5 {
		t.Errorf("measured Lavg %.2f vs analytic E/3 %.2f", st.AvgLength, analytic)
	}
}

func TestPlaceFoldedClosAllUplinksGlobal(t *testing.T) {
	fc, err := topo.NewFoldedClos(32, 16, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultPackaging()
	pl, err := PlaceFoldedClos(fc, p)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Channels != 1024 {
		t.Fatalf("channels = %d, want 1024", st.Channels)
	}
	// Every uplink leaves its leaf cabinet for the central router cabinet.
	if st.Backplane != 0 {
		t.Errorf("%d uplinks stayed in-cabinet; Fig 9(a) routes all to the center", st.Backplane)
	}
	if st.AvgLength <= 0 {
		t.Error("no cable lengths measured")
	}
}

func TestPlaceHypercubeLowDimsLocal(t *testing.T) {
	h, err := topo.NewHypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultPackaging()
	pl, err := PlaceHypercube(h, p)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	// Dims 0-6 connect routers within one 128-node cabinet: 7 of 10 dims
	// local -> 70% of channels on backplanes.
	wantLocal := st.Channels * 7 / 10
	if st.Backplane != wantLocal {
		t.Errorf("backplane channels = %d, want %d", st.Backplane, wantLocal)
	}
}

func TestPlaceButterfly(t *testing.T) {
	b, err := topo.NewButterfly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultPackaging()
	pl, err := PlaceButterfly(b, p)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Channels != b.Graph().CountChannels() {
		t.Fatalf("channels = %d, want %d", st.Channels, b.Graph().CountChannels())
	}
}

func TestLinkLengthRejectsNonNetwork(t *testing.T) {
	f, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlaceFlatFly(f, cost.DefaultPackaging())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.LinkLength(0, 0); err == nil {
		t.Error("terminal port accepted")
	}
}

func TestCompareWireDelaySection52(t *testing.T) {
	// §5.2: for local (worst-case) traffic, the folded Clos routes
	// through middle cabinets, incurring ~2x the flattened butterfly's
	// physical wire distance.
	f, err := topo.NewFlatFly(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := topo.NewFoldedClos(32, 16, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultPackaging()
	cmp, err := CompareWireDelay(f, fc, p)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Ratio < 1.3 {
		t.Errorf("Clos/FB wire-distance ratio = %.2f, want clearly > 1 (paper: ~2x)", cmp.Ratio)
	}
	if cmp.FlatFlyAvgMeters <= 0 || cmp.FoldedClosAvgMeters <= 0 {
		t.Errorf("degenerate distances: %+v", cmp)
	}
	// Mismatched sizes are rejected.
	small, err := topo.NewFoldedClos(8, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareWireDelay(f, small, p); err == nil {
		t.Error("mismatched node counts accepted")
	}
}
