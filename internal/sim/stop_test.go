package sim_test

import (
	"bytes"
	"errors"
	"testing"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// TestEveryHarnessStops holds every harness to its Stop hook and to Live:
// on a workload that would run for thousands of cycles, a hook that turns
// true once the run has published 1000 cycles to Live must end the run
// with ErrStopped within one poll interval, and the run must count itself
// in Live exactly once, with every cycle it simulated.
func TestEveryHarnessStops(t *testing.T) {
	const flip, poll = 1000, 256
	ff, newAlg := traceFF(t)
	g := ff.Graph()
	nodes := g.NumNodes
	saturating := func() traffic.Source { return traffic.NewBernoulli(traffic.NewUniform(nodes)) }

	// replay offers one flit per node per cycle until cycle last, every
	// router sending all of it to the next router. ReplayTrace pre-loads
	// 1024 cycles ahead, so a trace that ends at 800 is all injected at
	// cycle 0 and exercises the drain loop; one that ends at 4000 stops in
	// the stream loop.
	replay := func(last int64) func(attach func(*sim.Network), stop func() bool) error {
		var entries []sim.TraceEntry
		for c := int64(0); c < last; c += 4 {
			for s := 0; s < nodes; s++ {
				entries = append(entries, sim.TraceEntry{Cycle: c, Src: topo.NodeID(s), Dst: topo.NodeID((s + 5) % nodes), Size: 4})
			}
		}
		var trace bytes.Buffer
		if err := sim.WriteTraceJSONL(&trace, entries); err != nil {
			t.Fatal(err)
		}
		return func(attach func(*sim.Network), stop func() bool) error {
			n, err := sim.New(g, newAlg(), sim.DefaultConfig())
			if err != nil {
				return err
			}
			defer n.Close()
			attach(n)
			_, err = n.ReplayTrace(sim.NewTraceScanner(&trace), 0, stop)
			return err
		}
	}

	for _, tc := range []struct {
		name string
		run  func(attach func(*sim.Network), stop func() bool) error
	}{
		{"RunLoadPoint", func(attach func(*sim.Network), stop func() bool) error {
			_, err := sim.RunLoadPoint(g, newAlg(), sim.DefaultConfig(), sim.RunConfig{
				Load: 1, Source: saturating(), Warmup: 100000, Measure: 100000,
				RunHooks: sim.RunHooks{Attach: attach, Stop: stop},
			})
			return err
		}},
		{"RunBatch", func(attach func(*sim.Network), stop func() bool) error {
			_, err := sim.RunBatch(g, newAlg(), sim.DefaultConfig(), sim.BatchConfig{
				Pattern: traffic.NewUniform(nodes), BatchSize: 4000,
				RunHooks: sim.RunHooks{Attach: attach, Stop: stop},
			})
			return err
		}},
		{"RunCollective", func(attach func(*sim.Network), stop func() bool) error {
			_, err := sim.RunCollective(g, newAlg(), sim.DefaultConfig(), sim.CollectiveConfig{
				Kind: sim.CollectiveAllToAll, Packets: 400, Source: saturating(), Load: 1,
				RunHooks: sim.RunHooks{Attach: attach, Stop: stop},
			})
			return err
		}},
		{"RunClosedLoop", func(attach func(*sim.Network), stop func() bool) error {
			_, err := sim.RunClosedLoop(g, newAlg(), sim.DefaultConfig(), sim.ClosedLoopConfig{
				Window: 4, Pattern: traffic.NewUniform(nodes), Warmup: 100000, Measure: 100000,
				RunHooks: sim.RunHooks{Attach: attach, Stop: stop},
			})
			return err
		}},
		{"ReplayTrace streaming", replay(4000)},
		{"ReplayTrace draining", replay(800)},
	} {
		var n *sim.Network
		started, finished := sim.Live.RunsStarted.Load(), sim.Live.RunsFinished.Load()
		cycles0 := sim.Live.Cycles.Load()
		err := tc.run(func(net *sim.Network) { n = net }, func() bool { return sim.Live.Cycles.Load()-cycles0 >= flip })
		if !errors.Is(err, sim.ErrStopped) {
			t.Errorf("%s: got %v, want ErrStopped", tc.name, err)
			continue
		}
		if d := sim.Live.RunsStarted.Load() - started; d != 1 {
			t.Errorf("%s: Live.RunsStarted moved by %d, want 1", tc.name, d)
		}
		if d := sim.Live.RunsFinished.Load() - finished; d != 1 {
			t.Errorf("%s: Live.RunsFinished moved by %d, want 1", tc.name, d)
		}
		c := sim.Live.Cycles.Load() - cycles0
		if c < flip || c > flip+poll {
			t.Errorf("%s: stopped at cycle %d, want %d..%d", tc.name, c, flip, flip+poll)
		}
		if n != nil && n.Cycle() != c {
			t.Errorf("%s: Live counted %d cycles, the network ran %d", tc.name, c, n.Cycle())
		}
	}
}
