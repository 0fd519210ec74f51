// Adversarial routing conformance: the three queue-backed adaptive
// deciders on worst-case traffic, at loads straddling the non-minimal
// saturation point, all under the sanitizer. Adversarial pressure is
// exactly where credit or VC accounting bugs surface — a run is only as
// trustworthy as its behavior past the knee.
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

// TestAdversarialRoutingUnderSanitizer sweeps UGAL, UGAL-S and CLOS AD
// on worst-case traffic through loads below, near and above the
// analytic non-minimal saturation point ((k-1)/2k = 0.4375 for k=8).
// Every point must hold all runtime invariants; below the knee the
// network must also accept what is offered and stay unsaturated.
func TestAdversarialRoutingUnderSanitizer(t *testing.T) {
	f, err := topo.NewFlatFly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	sat := analysis.FlatFlyWCNonMinimal(8)
	cases := []struct {
		alg  string
		load float64
	}{
		{"ugal", 0.3}, {"ugal", 0.5}, {"ugal", 0.7},
		{"ugal-s", 0.3}, {"ugal-s", 0.5}, {"ugal-s", 0.7},
		{"clos", 0.3}, {"clos", 0.5}, {"clos", 0.7},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.alg+"/wc", func(t *testing.T) {
			alg, err := routing.NewFlatFlyAlgorithm(tc.alg, f)
			if err != nil {
				t.Fatal(err)
			}
			rc := sim.RunConfig{
				Load: tc.load, Source: traffic.NewBernoulli(traffic.NewWorstCase(8, 8)),
				Warmup: 300, Measure: 500, MaxCycles: 1500,
			}
			done := check.Arm(&rc.Attach, check.Config{})
			res, err := sim.RunLoadPoint(f.Graph(), alg, sim.DefaultConfig(), rc)
			if err != nil {
				t.Fatal(err)
			}
			if err := done(); err != nil {
				t.Fatalf("%s at WC load %.2f tripped the sanitizer: %v", alg.Name(), tc.load, err)
			}
			switch {
			case tc.load < sat:
				if res.Saturated {
					t.Errorf("%s saturated at WC load %.2f, below the %.4f non-minimal bound",
						alg.Name(), tc.load, sat)
				}
				if res.AcceptedRate < 0.85*tc.load {
					t.Errorf("%s accepted %.3f of %.2f offered below saturation",
						alg.Name(), res.AcceptedRate, tc.load)
				}
			default:
				// Past the knee the decider cannot beat the channel-load
				// bound; allow the usual simulation band above it.
				if res.AcceptedRate > 1.25*sat {
					t.Errorf("%s accepted %.3f at WC load %.2f, above the %.4f analytic ceiling",
						alg.Name(), res.AcceptedRate, tc.load, sat)
				}
			}
		})
	}
}
