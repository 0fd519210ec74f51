// Slim Fly and dragonfly conformance: the zero-load latency oracle at
// 64+ terminals for every routing variant, and adversarial saturation
// bands straddling each family's analytic knee — all under the runtime
// sanitizer, mirroring the flattened-butterfly suites.
package check_test

import (
	"testing"

	"flatnet/internal/analysis"
	"flatnet/internal/check"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// modernSF is the conformance instance: q=5 (δ=+1), 50 routers of
// network degree 7, p=2 → 100 terminals.
func modernSF(t *testing.T) *topo.SlimFly {
	t.Helper()
	s, err := topo.NewSlimFly(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// modernDF is the conformance instance: h=2 with balanced defaults
// (a=4, p=2), 9 groups, 36 routers → 72 terminals.
func modernDF(t *testing.T) *topo.Dragonfly {
	t.Helper()
	d, err := topo.NewDragonfly(0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSlimFlyZeroLoadOracle holds every Slim Fly routing variant to the
// closed-form zero-load model under uniform traffic: minimal hops for
// MIN and the queue-backed deciders (empty queues go minimal), the
// O(R³) Valiant triple enumeration for VAL.
func TestSlimFlyZeroLoadOracle(t *testing.T) {
	s := modernSF(t)
	cfg := sim.DefaultConfig()
	ur := traffic.NewUniform(s.NumNodes)

	dist := make([][]int, s.NumRouters)
	for r := range dist {
		dist[r] = s.MinHopsFrom(topo.RouterID(r))
	}
	valHops := routing.ValiantHopsFromDist(s.NumRouters, func(a, b int) int {
		return dist[a][b]
	})

	for _, algName := range []string{"min", "val", "ugal", "ugal-s"} {
		alg, err := routing.NewSlimFlyAlgorithm(algName, s)
		if err != nil {
			t.Fatal(err)
		}
		hops := s.AvgUniformMinHops()
		if algName == "val" {
			hops = valHops
		}
		m, err := routing.ZeroLoadFor(s.Graph(), cfg, hops)
		if err != nil {
			t.Fatal(err)
		}
		conform(t, s.Name()+" "+alg.Name(), zeroLoad(t, s.Graph(), alg, cfg, ur), m)
	}
}

// TestDragonflyZeroLoadOracle is the dragonfly analogue; minimal hops
// are the hierarchical local-global-local counts the router tables
// implement, and VAL chains two hierarchical segments.
func TestDragonflyZeroLoadOracle(t *testing.T) {
	d := modernDF(t)
	cfg := sim.DefaultConfig()
	ur := traffic.NewUniform(d.NumNodes)

	valHops := routing.ValiantHopsFromDist(d.NumRouters, func(a, b int) int {
		return d.MinHops(topo.RouterID(a), topo.RouterID(b))
	})

	for _, algName := range []string{"min", "val", "ugal", "ugal-s"} {
		alg, err := routing.NewDragonflyAlgorithm(algName, d)
		if err != nil {
			t.Fatal(err)
		}
		hops := d.AvgUniformMinHops()
		if algName == "val" {
			hops = valHops
		}
		m, err := routing.ZeroLoadFor(d.Graph(), cfg, hops)
		if err != nil {
			t.Fatal(err)
		}
		conform(t, d.Name()+" "+alg.Name(), zeroLoad(t, d.Graph(), alg, cfg, ur), m)
	}
}

// slimFlyNeighborPattern builds the Slim Fly adversary: a fixed pattern
// where every terminal of router (s,x,y) targets the same-slot terminal
// of the router one fixed Cayley generator away — (0,x,y+g₀) in block 0,
// (1,m,c+g₁) in block 1. Translation by a generator is a permutation of
// the routers and every (router, target) pair is an edge, so minimal
// routing loads exactly one channel with all p flows while ejection
// stays balanced: the knee is exactly 1/p. The generators are recovered
// from the adjacency of the orbit representatives (q prime here, so
// field arithmetic is arithmetic mod q).
func slimFlyNeighborPattern(t *testing.T, s *topo.SlimFly) traffic.Pattern {
	t.Helper()
	q := s.Q
	g0, g1 := -1, -1
	for _, n := range s.Adjacency(0) { // router (0,0,0): intra-block neighbors are (0,0,g), g ∈ X
		if int(n) < q*q {
			g0 = int(n) % q
			break
		}
	}
	for _, n := range s.Adjacency(topo.RouterID(q * q)) { // router (1,0,0): intra-block neighbors are (1,0,g'), g' ∈ X'
		if int(n) >= q*q {
			g1 = int(n) % q
			break
		}
	}
	if g0 < 0 || g1 < 0 {
		t.Fatal("no intra-block neighbors found")
	}
	table := make([]topo.NodeID, s.NumNodes)
	for node := range table {
		r, slot := node/s.P, node%s.P
		block, x, y := r/(q*q), (r%(q*q))/q, r%q
		var tr int
		if block == 0 {
			tr = x*q + (y+g0)%q
		} else {
			tr = q*q + x*q + (y+g1)%q
		}
		table[node] = topo.NodeID(tr*s.P + slot)
	}
	return traffic.NewFixed("SF-NBR", table)
}

// TestSlimFlyAdversarial straddles the 1/p minimal knee with MIN and
// holds the UGAL variants unsaturated at the same loads: the
// neighbor-adversarial pattern leaves diameter-2 detours through any of
// the k'=7 other neighbors, so the non-minimal ceiling (~k'/(2p) ≈ 1.75
// before ejection limits) is far above every tested load.
func TestSlimFlyAdversarial(t *testing.T) {
	s := modernSF(t)
	pat := slimFlyNeighborPattern(t, s)
	sat := loadBound(t, s.Graph(), pat, analysis.Minimal) // 1/p = 0.5
	cases := []struct {
		alg  string
		load float64
	}{
		{"min", 0.3}, {"min", 0.8},
		{"ugal", 0.3}, {"ugal", 0.7},
		{"ugal-s", 0.3}, {"ugal-s", 0.7},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.alg+"/nbr", func(t *testing.T) {
			alg, err := routing.NewSlimFlyAlgorithm(tc.alg, s)
			if err != nil {
				t.Fatal(err)
			}
			rc := sim.RunConfig{
				Load: tc.load, Source: traffic.NewBernoulli(pat),
				Warmup: 300, Measure: 500, MaxCycles: 1500,
			}
			done := check.Arm(&rc.Attach, check.Config{})
			res, err := sim.RunLoadPoint(s.Graph(), alg, sim.DefaultConfig(), rc)
			if err != nil {
				t.Fatal(err)
			}
			if err := done(); err != nil {
				t.Fatalf("%s at neighbor load %.2f tripped the sanitizer: %v", alg.Name(), tc.load, err)
			}
			minimalAboveKnee := tc.alg == "min" && tc.load > sat
			switch {
			case !minimalAboveKnee:
				if res.Saturated {
					t.Errorf("%s saturated at neighbor load %.2f", alg.Name(), tc.load)
				}
				if res.AcceptedRate < 0.85*tc.load {
					t.Errorf("%s accepted %.3f of %.2f offered below saturation",
						alg.Name(), res.AcceptedRate, tc.load)
				}
			default:
				inBand(t, "MIN past the knee", res.AcceptedRate, sat, 0.80, 1.25)
			}
		})
	}
}

// TestDragonflyAdversarial straddles both dragonfly knees on the
// worst-case pattern (each group's a·p = 8 terminals target the next
// group). The dragonfly's routing is hierarchical, not graph-shortest,
// so the knees are the dragonfly paper's (Kim et al., ISCA 2008), not
// the channel-load bound's (0.255 and 0.383, internal/analysis).
func TestDragonflyAdversarial(t *testing.T) {
	d := modernDF(t)
	pat := traffic.NewWorstCase(d.A*d.P, d.Groups)
	// MIN: the group's a·p flows share its one global channel to the next
	// group, 1/(a·p).
	minSat := 0.125
	// VAL/UGAL: ~2 global hops per packet over the group's a·h global
	// channels against a·p injected flits, h/(2p).
	nmSat := 0.5
	cases := []struct {
		alg  string
		load float64
		sat  float64
	}{
		{"min", 0.08, minSat}, {"min", 0.3, minSat},
		// The parallel UGAL variant only sees the congested global channel
		// (owned by another router of the group) through backpressure, so
		// its worst-case knee sits well below h/(2p) — the dragonfly
		// paper's motivation for globally-informed UGAL. Straddle wider:
		// below the minimal knee it must still be clean, and past the
		// non-minimal bound it cannot beat the channel-load ceiling.
		{"ugal", 0.1, nmSat}, {"ugal", 0.7, nmSat},
		// Sequential allocation propagates queue growth within the cycle,
		// which is enough information to hold the analytic knee.
		{"ugal-s", 0.3, nmSat}, {"ugal-s", 0.7, nmSat},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.alg+"/wc", func(t *testing.T) {
			alg, err := routing.NewDragonflyAlgorithm(tc.alg, d)
			if err != nil {
				t.Fatal(err)
			}
			rc := sim.RunConfig{
				Load: tc.load, Source: traffic.NewBernoulli(pat),
				Warmup: 300, Measure: 500, MaxCycles: 1500,
			}
			done := check.Arm(&rc.Attach, check.Config{})
			res, err := sim.RunLoadPoint(d.Graph(), alg, sim.DefaultConfig(), rc)
			if err != nil {
				t.Fatal(err)
			}
			if err := done(); err != nil {
				t.Fatalf("%s at WC load %.2f tripped the sanitizer: %v", alg.Name(), tc.load, err)
			}
			switch {
			case tc.load < tc.sat:
				if res.Saturated {
					t.Errorf("%s saturated at WC load %.2f, below the %.4f bound",
						alg.Name(), tc.load, tc.sat)
				}
				if res.AcceptedRate < 0.85*tc.load {
					t.Errorf("%s accepted %.3f of %.2f offered below saturation",
						alg.Name(), res.AcceptedRate, tc.load)
				}
			default:
				if res.AcceptedRate > 1.25*tc.sat {
					t.Errorf("%s accepted %.3f at WC load %.2f, above the %.4f analytic ceiling",
						alg.Name(), res.AcceptedRate, tc.load, tc.sat)
				}
			}
		})
	}
}
