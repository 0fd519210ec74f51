package sim

import (
	"math"
	"testing"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

func TestChannelLoadsConservation(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(16))
	for i := 0; i < 500; i++ {
		MustGenerate(t, n, 0.4)
		n.Step()
	}
	var termFlits int64
	for _, c := range n.ChannelLoads() {
		if c.Utilization < 0 || c.Utilization > 1.000001 {
			t.Fatalf("channel %d.%d utilization %v out of [0,1]", c.Router, c.Port, c.Utilization)
		}
		if c.Kind == topo.Terminal {
			termFlits += c.Flits
		}
	}
	// Every delivered flit left through a terminal channel.
	_, flitsDelivered := n.FlitTotals()
	// Some flits may still be on ejection channels (sent, not yet
	// delivered), so termFlits >= delivered.
	if termFlits < flitsDelivered {
		t.Fatalf("terminal channel flits %d < delivered %d", termFlits, flitsDelivered)
	}
	if termFlits == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestLoadImbalanceDistinguishesPatterns(t *testing.T) {
	// The worst-case pattern under minimal routing piles all traffic on
	// one channel per router (imbalance ratio ~ number of channels); the
	// uniform pattern spreads it evenly (ratio near 1).
	f := testFF(t, 8, 2)
	run := func(p traffic.Pattern) float64 {
		n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		MustInstall(t, n, p)
		for i := 0; i < 200; i++ {
			MustGenerate(t, n, 0.1)
			n.Step()
		}
		n.ResetChannelStats()
		for i := 0; i < 800; i++ {
			MustGenerate(t, n, 0.1)
			n.Step()
		}
		_, _, ratio := n.LoadImbalance()
		return ratio
	}
	urRatio := run(traffic.NewUniform(f.NumNodes))
	wcRatio := run(traffic.NewWorstCase(f.K, f.NumRouters))
	if urRatio > 2.0 {
		t.Errorf("uniform imbalance ratio = %.2f, want near 1", urRatio)
	}
	if wcRatio < 5.0 {
		t.Errorf("worst-case minimal imbalance ratio = %.2f, want ~7 (all load on 1 of 7 channels)", wcRatio)
	}
}

func TestResetChannelStats(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(16))
	for i := 0; i < 200; i++ {
		MustGenerate(t, n, 0.5)
		n.Step()
	}
	n.ResetChannelStats()
	for _, c := range n.ChannelLoads() {
		if c.Flits != 0 {
			t.Fatalf("channel %d.%d has %d flits after reset", c.Router, c.Port, c.Flits)
		}
	}
	max, mean, _ := n.LoadImbalance()
	if max != 0 || mean != 0 {
		t.Fatal("imbalance should be zero right after reset")
	}
}

// TestChannelLoadsWarmupWindow pins the ResetChannelStats contract used
// for warm-up exclusion: after a reset, Utilization is computed over the
// post-reset window only, and the split counters reconcile with an
// unreset control run of the same seed.
func TestChannelLoadsWarmupWindow(t *testing.T) {
	f := testFF(t, 4, 2)
	build := func() *Network {
		n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		MustInstall(t, n, traffic.NewUniform(16))
		return n
	}
	drive := func(n *Network, cycles int) {
		for i := 0; i < cycles; i++ {
			MustGenerate(t, n, 0.3)
			n.Step()
		}
	}

	const warm, meas = 300, 500
	n := build()
	drive(n, warm)
	pre := n.ChannelLoads()
	n.ResetChannelStats()
	drive(n, meas)
	post := n.ChannelLoads()
	var postFlits int64
	for _, c := range post {
		// The denominator must be the post-reset window, not total cycles.
		want := float64(c.Flits) / meas
		if math.Abs(c.Utilization-want) > 1e-12 {
			t.Fatalf("channel %d.%d utilization %v, want %v (flits/%d)",
				c.Router, c.Port, c.Utilization, want, meas)
		}
		postFlits += c.Flits
	}
	if postFlits == 0 {
		t.Fatal("no traffic in the measurement window")
	}

	// Control: identical seed and drive, no reset — per-channel totals
	// must equal pre + post, proving the reset dropped exactly the
	// warm-up traffic and did not perturb the simulation.
	ctrl := build()
	drive(ctrl, warm+meas)
	all := ctrl.ChannelLoads()
	if len(all) != len(pre) || len(all) != len(post) {
		t.Fatalf("channel count mismatch: %d/%d/%d", len(all), len(pre), len(post))
	}
	for i, c := range all {
		if split := pre[i].Flits + post[i].Flits; c.Flits != split {
			t.Errorf("channel %d.%d: control %d flits, warm %d + meas %d = %d",
				c.Router, c.Port, c.Flits, pre[i].Flits, post[i].Flits, split)
		}
	}
}

func TestTopChannels(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every node 0..3 sends to node 4 (router 1): channel 0->1 is hottest.
	tab := make([]topo.NodeID, 16)
	for i := range tab {
		tab[i] = 4
	}
	MustInstall(t, n, traffic.NewFixed("hot", tab))
	for i := 0; i < 300; i++ {
		MustGenerate(t, n, 0.3)
		n.Step()
	}
	top := n.TopChannels(3)
	if len(top) != 3 {
		t.Fatalf("got %d channels", len(top))
	}
	if top[0].Flits < top[1].Flits || top[1].Flits < top[2].Flits {
		t.Fatal("TopChannels not sorted descending")
	}
	// The hottest network channel belongs to a router sending toward
	// router 1.
	hot := top[0]
	out := f.Graph().Routers[hot.Router].Out[hot.Port]
	if out.Peer != 1 {
		t.Errorf("hottest channel goes to router %d, want 1", out.Peer)
	}
}

func TestBufferOccupancy(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	total, mean, max := n.BufferOccupancy()
	if total != 0 || mean != 0 || max != 0 {
		t.Fatal("fresh network should have empty buffers")
	}
	MustInstall(t, n, traffic.NewWorstCase(4, 4))
	for i := 0; i < 300; i++ {
		MustGenerate(t, n, 1.0)
		n.Step()
	}
	total, mean, max = n.BufferOccupancy()
	if total <= 0 || mean <= 0 || max <= 0 {
		t.Fatal("overloaded network should have occupied buffers")
	}
	buffered, _ := n.Inventory()
	if total != buffered {
		t.Fatalf("occupancy %d disagrees with inventory %d", total, buffered)
	}
}
