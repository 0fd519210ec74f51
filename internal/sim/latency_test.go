package sim

import (
	"testing"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// TestMultiCycleChannels verifies credit flow and latency accounting with
// long channels: per-hop latency scales with the channel latency and the
// network still sustains full throughput once per-VC buffering covers the
// credit round trip.
func TestMultiCycleChannels(t *testing.T) {
	build := func(lat int) *topo.FlatFly {
		f, err := topo.NewFlatFly(4, 2, topo.WithChannelLatency(lat))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	lat := func(f *topo.FlatFly) float64 {
		res, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, DefaultConfig(), RunConfig{
			Load: 0.1, Source: traffic.NewBernoulli(traffic.NewUniform(16)), Warmup: 300, Measure: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Saturated {
			t.Fatal("saturated at 10% load")
		}
		return res.AvgLatency
	}
	l1 := lat(build(1))
	l5 := lat(build(5))
	// Remote packets (P=0.75) take 1 inter-router hop: latency grows by
	// ~0.75 * 4 extra cycles.
	if l5-l1 < 2.0 || l5-l1 > 4.5 {
		t.Fatalf("latency delta for 5-cycle channels = %.2f, want ~3", l5-l1)
	}
	// Throughput stays high: buffers (32) cover the credit RTT (11).
	f := build(5)
	thpt, err := SaturationThroughput(f.Graph(), &minimalAlg{f}, DefaultConfig(),
		traffic.NewUniform(16), 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.85 {
		t.Fatalf("throughput with 5-cycle channels = %.3f, want ~0.94", thpt)
	}
}

// TestCreditStarvationWithTinyBuffers verifies the credit loop binds when
// per-VC buffering cannot cover the round trip: throughput drops to
// roughly depth/RTT per channel.
func TestCreditStarvationWithTinyBuffers(t *testing.T) {
	f, err := topo.NewFlatFly(4, 2, topo.WithChannelLatency(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 1, BufPerPort: 4} // depth 4 vs RTT ~17
	// Single-destination stream across one channel: node 0 -> node 4.
	tab := make([]topo.NodeID, 16)
	for i := range tab {
		tab[i] = topo.NodeID(i) // self by default: idle
	}
	tab[0] = 4
	n, err := New(f.Graph(), &minimalAlg{f}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewFixed("stream", tab))
	delivered := 0
	n.AttachHooks(&Hooks{Deliver: func(p *Packet, _ int64) {
		if p.Src == 0 {
			delivered++
		}
	}})
	// Only node 0 injects.
	for i := 0; i < 2000; i++ {
		n.pushArrival(0, n.Cycle())
		n.Step()
	}
	rate := float64(delivered) / 2000
	// Credit-limited rate = depth / RTT = 4 / (8 + 8 + ~1) ~ 0.24.
	if rate < 0.15 || rate > 0.40 {
		t.Fatalf("credit-limited rate = %.3f, want ~0.24 (4 credits over a 17-cycle loop)", rate)
	}
}

// TestSpeedupOneLimitsGrants verifies the Speedup knob: with Speedup=1 an
// input port forwards at most one flit per cycle, so two VC streams on
// one input cannot exceed one flit per cycle combined.
func TestSpeedupOneLimitsGrants(t *testing.T) {
	f, err := topo.NewFlatFly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ur := traffic.NewUniform(f.NumNodes)
	limited := Config{Seed: 1, BufPerPort: 32, Speedup: 1}
	thptLim, err := SaturationThroughput(f.Graph(), &minimalAlg{f}, limited, ur, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	thptFull, err := SaturationThroughput(f.Graph(), &minimalAlg{f}, DefaultConfig(), ur, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thptLim >= thptFull {
		t.Fatalf("speedup-1 throughput %.3f should trail unlimited %.3f (HOL blocking)", thptLim, thptFull)
	}
	if thptLim < 0.4 {
		t.Fatalf("speedup-1 throughput %.3f implausibly low", thptLim)
	}
}

// TestZeroLoadLatencyComposition decomposes the zero-load latency of a
// one-hop route: channel latency + ejection latency, with no queueing.
func TestZeroLoadLatencyComposition(t *testing.T) {
	f, err := topo.NewFlatFly(4, 2, topo.WithChannelLatency(3), topo.WithTerminalLatency(2))
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := make([]topo.NodeID, 16)
	for i := range tab {
		tab[i] = 15
	}
	MustInstall(t, n, traffic.NewFixed("single", tab))
	var at int64 = -1
	n.AttachHooks(&Hooks{Deliver: func(p *Packet, c int64) { at = c }})
	n.pushArrival(0, 0)
	for i := 0; i < 30 && at < 0; i++ {
		n.Step()
	}
	// Route+switch at source router (cycle 0), 3 cycles channel, route+
	// switch at router 3 (cycle 3), 2 cycles ejection channel -> cycle 5.
	if at != 5 {
		t.Fatalf("delivered at cycle %d, want 5 (3-cycle hop + 2-cycle ejection)", at)
	}
}

func TestRouterDelayPipeline(t *testing.T) {
	// A 2-cycle router pipeline adds 2 cycles per inter-router hop (the
	// source router's own pipeline is not modeled: the packet enters at
	// the allocation stage).
	f := testFF(t, 4, 2)
	run := func(delay int) int64 {
		cfg := DefaultConfig()
		cfg.RouterDelay = delay
		n, err := New(f.Graph(), &minimalAlg{f}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tab := make([]topo.NodeID, 16)
		for i := range tab {
			tab[i] = 15
		}
		MustInstall(t, n, traffic.NewFixed("single", tab))
		var at int64 = -1
		n.AttachHooks(&Hooks{Deliver: func(p *Packet, c int64) { at = c }})
		n.pushArrival(0, 0)
		for i := 0; i < 30 && at < 0; i++ {
			n.Step()
		}
		if at < 0 {
			t.Fatal("not delivered")
		}
		return at
	}
	if d0, d2 := run(0), run(2); d2 != d0+2 {
		t.Fatalf("2-cycle pipeline: delivered at %d vs %d, want +2", d2, d0)
	}
	if _, err := New(f.Graph(), &minimalAlg{f}, Config{Seed: 1, BufPerPort: 8, RouterDelay: -1}); err == nil {
		t.Error("negative router delay accepted")
	}
}
