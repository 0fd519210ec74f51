package spec

import (
	"errors"
	"reflect"
	"testing"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// TestBuildEveryFamily walks the whole table: every family, under every
// algorithm name and alias it accepts plus the default (Alg == ""), must
// build the expected network, algorithm and concentration.
func TestBuildEveryFamily(t *testing.T) {
	ffAlgs := map[string]string{
		"":    "MIN AD",
		"min": "MIN AD", "MIN AD": "MIN AD",
		"val": "VAL", "VAL": "VAL",
		"ugal": "UGAL", "UGAL": "UGAL",
		"ugal-s": "UGAL-S", "UGAL-S": "UGAL-S",
		"clos": "CLOS AD", "CLOS AD": "CLOS AD",
	}
	modern := func(prefix string) map[string]string {
		m := map[string]string{"": prefix + " MIN"}
		for _, a := range []struct {
			long  string
			names []string
		}{
			{"MIN", []string{"min", "MIN", "MIN AD"}},
			{"VAL", []string{"val", "VAL"}},
			{"UGAL", []string{"ugal", "UGAL"}},
			{"UGAL-S", []string{"ugal-s", "UGAL-S"}},
		} {
			for _, name := range append(a.names, prefix+" "+a.long) {
				m[name] = prefix + " " + a.long
			}
		}
		return m
	}
	single := func(name string) map[string]string { return map[string]string{"": name, name: name} }
	cases := []struct {
		net                  Net
		nodes, routers, conc int
		algs                 map[string]string // accepted Alg -> alg.Name()
	}{
		{Net{Family: "flatfly", K: 4, N: 2}, 16, 4, 4, ffAlgs},
		{Net{Family: "flatfly", K: 4, N: 3, ChannelLatency: 2}, 64, 16, 4, ffAlgs},
		{Net{Family: "flatfly", K: 4, N: 2, Multiplicity: 2}, 16, 4, 4, ffAlgs},
		{Net{Family: "butterfly", K: 4, N: 2}, 16, 8, 4, single("destination")},
		{Net{Family: "foldedclos", K: 4, Uplinks: 2, Leaves: 4, Middles: 1}, 16, 5, 4, single("adaptive sequential")},
		{Net{Family: "hypercube", N: 4}, 16, 16, 1, single("e-cube")},
		{Net{Family: "slimfly", Q: 5}, 200, 50, 4, modern("SF")},
		{Net{Family: "slimfly", Q: 5, P: 2}, 100, 50, 2, modern("SF")},
		{Net{Family: "dragonfly", H: 2}, 72, 36, 8, modern("DF")},
		{Net{Family: "dragonfly", H: 2, A: 2, P: 1}, 10, 10, 2, modern("DF")},
		{Net{Family: "torus", K: 4, N: 2}, 16, 16, 1, single("torus DOR")},
		{Net{Family: "ghc", K: 4}, 16, 16, 1, single("GHC min-adaptive")},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.net.Family] = true
		for name, want := range c.algs {
			n := c.net
			n.Alg = name
			tp, alg, conc, err := n.Build()
			if err != nil {
				t.Errorf("%+v: %v", n, err)
				continue
			}
			g := tp.Graph()
			if g.NumNodes != c.nodes || g.NumRouters() != c.routers || conc != c.conc || alg.Name() != want {
				t.Errorf("%+v: built %d nodes, %d routers, conc %d, alg %q; want %d, %d, %d, %q",
					n, g.NumNodes, g.NumRouters(), conc, alg.Name(), c.nodes, c.routers, c.conc, want)
			}
		}
		tp, err := c.net.Topology()
		if err != nil || tp.Graph().NumNodes != c.nodes {
			t.Errorf("%+v: Topology() = %v, %v", c.net, tp, err)
			continue
		}
		// Analytic mode sweeps one BFS per router orbit, so every table
		// family declares its orbits (internal/analysis holds each claim
		// to the all-sources sweep); a row without them would silently
		// cost a BFS per router.
		ot, ok := tp.(interface {
			RouterOrbits() ([]topo.RouterID, []int)
		})
		if !ok {
			t.Errorf("%+v: %T has no RouterOrbits", c.net, tp)
			continue
		}
		reps, sizes := ot.RouterOrbits()
		total := 0
		for _, s := range sizes {
			total += s
		}
		if len(reps) != len(sizes) || total != c.routers {
			t.Errorf("%+v: %d orbit reps, sizes %v sum to %d, want %d routers", c.net, len(reps), sizes, total, c.routers)
		}
	}
	for _, f := range families {
		if !covered[f.name] {
			t.Errorf("family %q has no row in this test", f.name)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, _, _, err := (Net{Family: "bogus", K: 4, N: 2}).Build(); err == nil {
		t.Error("unknown family built")
	}
	if _, err := (Net{Family: "bogus"}).Topology(); err == nil {
		t.Error("unknown family has a topology")
	}
	for _, n := range []Net{
		{Family: "flatfly", K: 4, N: 2, Alg: "bogus"},
		{Family: "butterfly", K: 4, N: 2, Alg: "min"},
		{Family: "foldedclos", K: 4, Uplinks: 2, Leaves: 4, Middles: 1, Alg: "e-cube"},
		{Family: "hypercube", N: 4, Alg: "destination"},
		{Family: "slimfly", Q: 5, Alg: "clos"},
		{Family: "dragonfly", H: 2, Alg: "clos"},
	} {
		if _, _, _, err := n.Build(); err == nil {
			t.Errorf("%+v: wrong algorithm accepted", n)
		}
		if _, err := n.Topology(); err != nil {
			t.Errorf("%+v: Topology() must not look at Alg: %v", n, err)
		}
	}
	// Constructor errors stay matchable.
	var pe *topo.ParamError
	if _, _, _, err := (Net{Family: "slimfly", Q: 6}).Build(); !errors.As(err, &pe) || pe.Param != "q" {
		t.Errorf("slimfly q=6: want a *topo.ParamError on q, got %v", err)
	}
	if _, err := (Net{Family: "dragonfly", H: 0}).Topology(); !errors.As(err, &pe) || pe.Param != "h" {
		t.Errorf("dragonfly h=0: want a *topo.ParamError on h, got %v", err)
	}
	if _, _, _, err := (Net{Family: "flatfly", K: 1, N: 2}).Build(); err == nil {
		t.Error("1-ary flatfly built")
	}
}

func TestFlagsNet(t *testing.T) {
	f := Flags{K: 8, N: 2, Dims: 6, Taper: 2, Q: 5, GH: 2, GA: 4, P: 3, Alg: "ugal"}
	cases := []struct {
		topo string
		want Net
	}{
		{"ff", Net{Family: "flatfly", K: 8, N: 2, Alg: "ugal"}},
		{"flatfly", Net{Family: "flatfly", K: 8, N: 2, Alg: "ugal"}},
		{"butterfly", Net{Family: "butterfly", K: 8, N: 2}},
		{"clos", Net{Family: "foldedclos", K: 8, Uplinks: 4, Leaves: 8, Middles: 2}},
		{"foldedclos", Net{Family: "foldedclos", K: 8, Uplinks: 4, Leaves: 8, Middles: 2}},
		{"hypercube", Net{Family: "hypercube", N: 6}},
		{"sf", Net{Family: "slimfly", Q: 5, P: 3, Alg: "ugal"}},
		{"df", Net{Family: "dragonfly", H: 2, A: 4, P: 3, Alg: "ugal"}},
		{"torus", Net{Family: "torus", K: 8, N: 2}},
		{"ghc", Net{Family: "ghc", K: 8}},
	}
	for _, c := range cases {
		f.Topo = c.topo
		got, err := f.Net()
		if err != nil || got != c.want {
			t.Errorf("-topo %s: got %+v, %v; want %+v", c.topo, got, err, c.want)
		}
	}
	f.Topo = "bogus"
	if _, err := f.Net(); err == nil {
		t.Error("unknown -topo accepted")
	}
}

// TestTaperedClos pins the one folded-Clos convention against the
// formulas it replaced: flatsim's and flattopo's (k, k/taper, k,
// max(1, k/(2*taper))) — which at taper 2 is also the figure-6 job's
// (k, k/2, k, max(1, k/4)) — and nocd's topo.TaperedClosForNodes(k^n, 2k).
func TestTaperedClos(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 6, 7, 8, 12, 16, 32, 64} {
		for _, taper := range []int{1, 2, 4} {
			if taper > k {
				continue
			}
			got, err := TaperedClos(k, 2, taper)
			if err != nil {
				t.Fatal(err)
			}
			mid := k / (2 * taper)
			if mid < 1 {
				mid = 1
			}
			if uplinks := k / taper; uplinks%mid != 0 {
				continue // the old CLI formula failed here; the helper rounds down
			}
			want := Net{Family: "foldedclos", K: k, Uplinks: k / taper, Leaves: k, Middles: mid}
			if got != want {
				t.Errorf("k=%d taper=%d: got %+v, flatsim built %+v", k, taper, got, want)
			}
		}
		for n := 2; n <= 3; n++ {
			nodes := k * k
			if n == 3 {
				nodes *= k
			}
			fc, err := topo.TaperedClosForNodes(nodes, 2*k)
			if err != nil {
				continue // k=1-style degenerate radices
			}
			got, err := TaperedClos(k, n, 2)
			if err != nil {
				t.Fatal(err)
			}
			want := Net{Family: "foldedclos", K: fc.Terminals, Uplinks: fc.Uplinks, Leaves: fc.Leaves, Middles: fc.Middles}
			if got != want {
				t.Errorf("k=%d n=%d: got %+v, nocd built %+v", k, n, got, want)
			}
		}
	}
	for _, bad := range [][3]int{{0, 2, 2}, {8, 0, 2}, {8, 2, 0}, {1024, 20, 2}} {
		if _, err := TaperedClos(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("TaperedClos%v accepted", bad)
		}
	}
	// The largest request nocd's bounds admit short of overflow: the middle
	// count is found in at most k steps, not 2^48.
	big, err := TaperedClos(1024, 6, 2)
	if want := (Net{Family: "foldedclos", K: 1024, Uplinks: 512, Leaves: 1 << 50, Middles: 512}); err != nil || big != want {
		t.Errorf("TaperedClos(1024, 6, 2) = %+v, %v; want %+v", big, err, want)
	}
	// A taper above k leaves no uplinks; the constructor rejects it.
	n, err := TaperedClos(4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Topology(); err == nil {
		t.Error("folded Clos without uplinks built")
	}
}

func TestWorkloadBuild(t *testing.T) {
	// Group patterns default to the network's concentration.
	pat, src, err := Workload{Pattern: "WC"}.Build(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := traffic.NewWorstCase(4, 4)
	if !reflect.DeepEqual(pat, want) {
		t.Errorf("WC at conc 4: got %+v, want %+v", pat, want)
	}
	if b, ok := src.(*traffic.Bernoulli); !ok || b.Pattern != pat {
		t.Errorf("default arrivals: got %T, want Bernoulli over the pattern", src)
	}
	// An explicit Conc overrides it.
	pat, _, err = Workload{Pattern: "worstcase", Conc: 2}.Build(16, 4, 1)
	if err != nil || !reflect.DeepEqual(pat, traffic.NewWorstCase(2, 8)) {
		t.Errorf("WC at explicit conc 2: got %+v, %v", pat, err)
	}
	// Burst parameters select on/off arrivals.
	_, src, err = Workload{Pattern: "UR", BurstPeak: 0.8, BurstLen: 12}.Build(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if oo, ok := src.(*traffic.OnOff); !ok || oo.Peak != 0.8 || oo.AvgBurst != 12 {
		t.Errorf("bursty arrivals: got %+v", src)
	}
	if _, _, err := (Workload{Pattern: "UR", BurstPeak: 0.8}).Build(16, 4, 1); err == nil {
		t.Error("zero burst length accepted")
	}
	// Hot set and fraction reach the registry.
	pat, _, err = Workload{Pattern: "hotspot", Hot: []int{1, 3}, HotFraction: 0.3}.Build(16, 4, 1)
	hs, herr := traffic.NewHotspot(16, []topo.NodeID{1, 3}, 0.3)
	if err != nil || herr != nil || !reflect.DeepEqual(pat, hs) {
		t.Errorf("hotspot: got %+v, %v", pat, err)
	}
	// Unknown names stay a structured error.
	var unknown *traffic.UnknownPatternError
	if _, _, err := (Workload{Pattern: "bogus"}).Build(16, 4, 1); !errors.As(err, &unknown) || unknown.Name != "bogus" {
		t.Errorf("unknown pattern: want *traffic.UnknownPatternError, got %v", err)
	}
}
