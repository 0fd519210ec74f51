package sim_test

import (
	"fmt"
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// TestClosedLoopPinned holds RunClosedLoop to literals on a 4-ary 2-flat:
// windows 1 and 4, uniform requests under MIN AD and worst-case requests
// under UGAL. A change to how the harness tracks its request and reply
// legs must leave every round trip where it was.
func TestClosedLoopPinned(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		alg     string
		pattern traffic.Pattern
		window  int
		want    sim.ClosedLoopResult
	}{
		{"MIN AD", traffic.NewUniform(ff.NumNodes), 1, sim.ClosedLoopResult{AvgRoundTrip: 4.242156429518339, P99RoundTrip: 8, RequestRate: 0.23572916666666666, Completed: 2263}},
		{"MIN AD", traffic.NewUniform(ff.NumNodes), 4, sim.ClosedLoopResult{AvgRoundTrip: 9.146428571428572, P99RoundTrip: 18, RequestRate: 0.4375, Completed: 4200}},
		{"UGAL", traffic.NewWorstCase(ff.K, ff.NumRouters), 1, sim.ClosedLoopResult{AvgRoundTrip: 5.374370453273643, P99RoundTrip: 9, RequestRate: 0.18614583333333334, Completed: 1787}},
		{"UGAL", traffic.NewWorstCase(ff.K, ff.NumRouters), 4, sim.ClosedLoopResult{AvgRoundTrip: 16.019182652210176, P99RoundTrip: 24, RequestRate: 0.24979166666666666, Completed: 2398}},
	} {
		t.Run(fmt.Sprintf("%s/%s/w%d", c.alg, c.pattern.Name(), c.window), func(t *testing.T) {
			alg, err := routing.NewFlatFlyAlgorithm(c.alg, ff)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig()
			cfg.Seed = 5
			if cfg.BufPerPort < alg.NumVCs() {
				cfg.BufPerPort = alg.NumVCs()
			}
			got, err := sim.RunClosedLoop(ff.Graph(), alg, cfg, sim.ClosedLoopConfig{
				Window: c.window, Pattern: c.pattern, Warmup: 300, Measure: 600,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("got %#v, want %#v", got, c.want)
			}
		})
	}
}
