package experiments

import (
	"testing"
)

func TestFig4WCHeadlines(t *testing.T) {
	// The central claim of Fig 4(b): minimal routing collapses to ~1/k on
	// the worst-case pattern, non-minimal algorithms reach ~(k-1)/2k.
	s := Quick()
	series, err := Fig4On(nil, "WC", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("expected 5 algorithms, got %d", len(series))
	}
	byName := map[string]AlgSeries{}
	for _, a := range series {
		byName[a.Algorithm] = a
	}
	min := byName["MIN AD"].SaturationThroughput
	if min < 0.04 || min > 0.10 {
		t.Errorf("MIN AD WC sat = %.3f, want ~1/16", min)
	}
	for _, name := range []string{"VAL", "UGAL", "UGAL-S", "CLOS AD"} {
		if got := byName[name].SaturationThroughput; got < 0.35 {
			t.Errorf("%s WC sat = %.3f, want ~0.47", name, got)
		}
	}
	// Each series has one point per load.
	for _, a := range series {
		if len(a.Points) != len(s.Loads) {
			t.Errorf("%s: %d points, want %d", a.Algorithm, len(a.Points), len(s.Loads))
		}
	}
}

func TestFig4URHeadlines(t *testing.T) {
	series, err := Fig4On(nil, "UR", Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range series {
		switch a.Algorithm {
		case "VAL":
			if a.SaturationThroughput > 0.6 {
				t.Errorf("VAL UR sat = %.3f, should be capped near 50%%", a.SaturationThroughput)
			}
		default:
			if a.SaturationThroughput < 0.85 {
				t.Errorf("%s UR sat = %.3f, want ~1.0", a.Algorithm, a.SaturationThroughput)
			}
		}
	}
}

func TestFig4RejectsUnknownPattern(t *testing.T) {
	if _, err := Fig4On(nil, "bogus", Quick()); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestFig5Shape(t *testing.T) {
	s := Quick()
	series, err := Fig5On(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BatchSeries{}
	for _, a := range series {
		byName[a.Algorithm] = a
	}
	// Greedy UGAL is worst at the smallest batch; CLOS AD is best.
	ugal := byName["UGAL"].Points[0].NormalizedLatency
	ugalS := byName["UGAL-S"].Points[0].NormalizedLatency
	clos := byName["CLOS AD"].Points[0].NormalizedLatency
	if ugal <= ugalS || clos > ugalS {
		t.Errorf("small-batch ordering wrong: UGAL %.2f, UGAL-S %.2f, CLOS AD %.2f", ugal, ugalS, clos)
	}
	// Normalized latency decreases toward 1/throughput as batches grow.
	for _, a := range series {
		first := a.Points[0].NormalizedLatency
		last := a.Points[len(a.Points)-1].NormalizedLatency
		if last > first {
			t.Errorf("%s: normalized latency grew with batch size (%.2f -> %.2f)", a.Algorithm, first, last)
		}
	}
}

func TestFig6Headlines(t *testing.T) {
	ur, err := Fig6On(nil, "UR", Quick())
	if err != nil {
		t.Fatal(err)
	}
	wc, err := Fig6On(nil, "WC", Quick())
	if err != nil {
		t.Fatal(err)
	}
	urBy := map[string]TopoSeries{}
	for _, s := range ur {
		urBy[s.Algorithm] = s
	}
	wcBy := map[string]TopoSeries{}
	for _, s := range wc {
		wcBy[s.Algorithm] = s
	}
	// Fig 6(a): tapered folded Clos capped at ~50% on UR; FB ~100%.
	if got := urBy["adaptive sequential"].SaturationThroughput; got < 0.40 || got > 0.62 {
		t.Errorf("Clos UR sat = %.3f, want ~0.5", got)
	}
	if got := urBy["CLOS AD"].SaturationThroughput; got < 0.85 {
		t.Errorf("FB UR sat = %.3f, want ~1.0", got)
	}
	// Fig 6(b): butterfly collapses to ~1/k; FB and Clos ~50%.
	if got := wcBy["destination"].SaturationThroughput; got > 0.12 {
		t.Errorf("butterfly WC sat = %.3f, want ~1/16", got)
	}
	if got := wcBy["CLOS AD"].SaturationThroughput; got < 0.40 {
		t.Errorf("FB WC sat = %.3f, want ~0.5", got)
	}
	if got := wcBy["adaptive sequential"].SaturationThroughput; got < 0.40 {
		t.Errorf("Clos WC sat = %.3f, want ~0.5", got)
	}
	// Hypercube zero-load latency well above the FB's (diameter).
	fbLat := urBy["CLOS AD"].Points[0].AvgLatency
	hcLat := urBy["e-cube"].Points[0].AvgLatency
	if hcLat < 1.5*fbLat {
		t.Errorf("hypercube latency %.2f should be well above FB %.2f", hcLat, fbLat)
	}
}

func TestFig12VAL(t *testing.T) {
	series, err := Fig12On(nil, "VAL", 256, []float64{0.1}, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 3 {
		t.Fatalf("expected >= 3 configurations of N=256, got %d", len(series))
	}
	// Throughput stays ~constant at ~50% across dimensionality; latency
	// rises with n'.
	for _, c := range series {
		if c.SaturationThroughput < 0.35 || c.SaturationThroughput > 0.60 {
			t.Errorf("VAL k=%d sat = %.3f, want ~0.5", c.Config.K, c.SaturationThroughput)
		}
	}
	for i := 1; i < len(series); i++ {
		if series[i].Points[0].AvgLatency <= series[i-1].Points[0].AvgLatency {
			t.Errorf("latency should rise with n': %.2f (n'=%d) vs %.2f (n'=%d)",
				series[i].Points[0].AvgLatency, series[i].Config.NPrime,
				series[i-1].Points[0].AvgLatency, series[i-1].Config.NPrime)
		}
	}
}

func TestFig12MINAD(t *testing.T) {
	series, err := Fig12On(nil, "MIN AD", 256, []float64{0.2}, Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 12(b): with 64 flits per physical channel split across n' VCs
	// and long (16-cycle) channels, the low-dimensionality configurations
	// keep near-full throughput while the highest-n' configuration is
	// degraded — its per-VC buffers no longer cover the credit round
	// trip (the paper reports ~20% degradation from n'=1 to n'=5).
	first := series[0]
	last := series[len(series)-1]
	if first.SaturationThroughput < 0.85 {
		t.Errorf("MIN AD n'=%d sat = %.3f, want ~1.0", first.Config.NPrime, first.SaturationThroughput)
	}
	if last.SaturationThroughput > 0.9*first.SaturationThroughput {
		t.Errorf("highest n' (%d) sat = %.3f should be degraded vs n'=1 (%.3f)",
			last.Config.NPrime, last.SaturationThroughput, first.SaturationThroughput)
	}
	if last.SaturationThroughput < 0.35 {
		t.Errorf("highest n' sat = %.3f implausibly low", last.SaturationThroughput)
	}
	for i := 1; i < len(series); i++ {
		if series[i].Points[0].AvgLatency <= series[i-1].Points[0].AvgLatency {
			t.Errorf("latency should rise with n'")
		}
	}
}

func TestFig12RejectsBadInputs(t *testing.T) {
	if _, err := Fig12On(nil, "bogus", 256, []float64{0.1}, Quick()); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Fig12On(nil, "VAL", 17, []float64{0.1}, Quick()); err == nil {
		t.Error("size with no configurations accepted")
	}
}

func TestScalesAreSane(t *testing.T) {
	for _, s := range []Scale{Full(), Quick()} {
		if s.K < 2 || s.N < 2 || s.Warmup <= 0 || s.Measure <= 0 || len(s.Loads) == 0 || len(s.Batches) == 0 {
			t.Errorf("scale %+v is degenerate", s)
		}
		f, err := s.flatFly()
		if err != nil {
			t.Fatal(err)
		}
		if f.NumNodes != pow(s.K, s.N) {
			t.Errorf("scale network size mismatch")
		}
	}
}

func pow(k, n int) int {
	p := 1
	for i := 0; i < n; i++ {
		p *= k
	}
	return p
}

func TestExperimentsDeterministic(t *testing.T) {
	// An entire Fig 4 experiment must replay bit-identically for a given
	// scale: same latencies, same saturation throughputs.
	s := Quick()
	s.Loads = []float64{0.3, 0.7} // trim for speed
	a, err := Fig4On(nil, "WC", s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig4On(nil, "WC", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].SaturationThroughput != b[i].SaturationThroughput {
			t.Errorf("%s: saturation %v vs %v", a[i].Algorithm,
				a[i].SaturationThroughput, b[i].SaturationThroughput)
		}
		for j := range a[i].Points {
			if a[i].Points[j].AvgLatency != b[i].Points[j].AvgLatency {
				t.Errorf("%s load %.2f: latency %v vs %v", a[i].Algorithm,
					a[i].Points[j].Load, a[i].Points[j].AvgLatency, b[i].Points[j].AvgLatency)
			}
		}
	}
}
