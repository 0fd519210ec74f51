package sim

import (
	"testing"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

func multiflitConfig(size int) Config {
	c := DefaultConfig()
	c.PacketSize = size
	return c
}

func TestMultiFlitRejectsBadSize(t *testing.T) {
	f := testFF(t, 4, 2)
	if _, err := New(f.Graph(), &minimalAlg{f}, Config{Seed: 1, BufPerPort: 32, PacketSize: -1}); err == nil {
		t.Fatal("negative packet size accepted")
	}
	// Zero defaults to 1.
	n, err := New(f.Graph(), &minimalAlg{f}, Config{Seed: 1, BufPerPort: 32})
	if err != nil {
		t.Fatal(err)
	}
	if n.PacketSize() != 1 {
		t.Fatalf("packet size defaulted to %d, want 1", n.PacketSize())
	}
}

func TestMultiFlitSinglePacketLatency(t *testing.T) {
	// A size-4 packet pays 3 extra serialization cycles over a size-1
	// packet on the same path.
	f := testFF(t, 4, 2)
	lat := func(size int) int64 {
		n, err := New(f.Graph(), &minimalAlg{f}, multiflitConfig(size))
		if err != nil {
			t.Fatal(err)
		}
		tab := make([]topo.NodeID, 16)
		for i := range tab {
			tab[i] = 15
		}
		MustInstall(t, n, traffic.NewFixed("single", tab))
		var deliveredAt int64 = -1
		n.AttachHooks(&Hooks{Deliver: func(p *Packet, cycle int64) { deliveredAt = cycle }})
		n.pushArrival(0, 0)
		for i := 0; i < 40 && deliveredAt < 0; i++ {
			n.Step()
		}
		if deliveredAt < 0 {
			t.Fatalf("size-%d packet not delivered", size)
		}
		return deliveredAt
	}
	l1, l4 := lat(1), lat(4)
	if l4 != l1+3 {
		t.Fatalf("size-4 latency %d, want size-1 latency %d + 3 serialization cycles", l4, l1)
	}
}

func TestMultiFlitConservation(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, multiflitConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(16))
	for i := 0; i < 600; i++ {
		MustGenerate(t, n, 0.5)
		n.Step()
		if i%100 != 0 {
			continue
		}
		injected, delivered := n.FlitTotals()
		buffered, inFlight := n.Inventory()
		if injected != delivered+int64(buffered)+int64(inFlight) {
			t.Fatalf("cycle %d: flit conservation violated: %d != %d+%d+%d",
				i, injected, delivered, buffered, inFlight)
		}
	}
	// Drain and verify every injected packet arrives whole.
	for i := 0; i < 1000; i++ {
		n.Step()
	}
	pi, pd := n.Totals()
	fi, fd := n.FlitTotals()
	if pi != pd {
		t.Fatalf("packets lost: injected %d delivered %d", pi, pd)
	}
	if fi != fd || fi != 4*pi {
		t.Fatalf("flits inconsistent: injected %d delivered %d packets %d", fi, fd, pi)
	}
}

func TestMultiFlitThroughputMatchesSingleFlit(t *testing.T) {
	// §3.2 note 2: "Different packet sizes do not impact the comparison
	// results." Verify the minimal-routing worst-case collapse (~1/k) and
	// the uniform-random full throughput hold at packet size 4.
	f := testFF(t, 4, 2)
	wc := traffic.NewWorstCase(f.K, f.NumRouters)
	ur := traffic.NewUniform(f.NumNodes)
	wcThpt, err := SaturationThroughput(f.Graph(), &minimalAlg{f}, multiflitConfig(4), wc, 800, 1600)
	if err != nil {
		t.Fatal(err)
	}
	if wcThpt < 0.17 || wcThpt > 0.33 {
		t.Fatalf("size-4 WC throughput = %.3f, want ~0.25 as with single flits", wcThpt)
	}
	// With a single VC, wormhole switching loses some uniform-random
	// throughput to pipeline bubbles while a packet holds the downstream
	// VC — the classic motivation for virtual channels. The comparison
	// against the worst case must still be stark.
	urThpt, err := SaturationThroughput(f.Graph(), &minimalAlg{f}, multiflitConfig(4), ur, 800, 1600)
	if err != nil {
		t.Fatal(err)
	}
	if urThpt < 0.55 {
		t.Fatalf("size-4 UR throughput = %.3f, implausibly low", urThpt)
	}
	if urThpt < 2*wcThpt {
		t.Fatalf("size-4 UR (%.3f) should still dwarf WC (%.3f)", urThpt, wcThpt)
	}
}

func TestMultiFlitNoInterleaving(t *testing.T) {
	// With wormhole VC allocation, the flits of two packets must never
	// interleave within one downstream VC. Track per-(router, port, vc)
	// streams via a shadow check: deliveries must always complete packets
	// in whole units, which the tail-accounting asserts; additionally the
	// run must make progress at high load without deadlock.
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, multiflitConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(16))
	for i := 0; i < 1500; i++ {
		MustGenerate(t, n, 0.9)
		n.Step()
	}
	_, delivered := n.Totals()
	if delivered < 1000 {
		t.Fatalf("high-load multi-flit run delivered only %d packets", delivered)
	}
	// All delivered packets were complete: flitsDelivered accumulates
	// exactly size x packets once drained.
	for i := 0; i < 2000; i++ {
		n.Step()
	}
	pi, pd := n.Totals()
	fi, fd := n.FlitTotals()
	if pi != pd || fi != fd || fd != 3*pd {
		t.Fatalf("incomplete packets: packets %d/%d flits %d/%d", pi, pd, fi, fd)
	}
}

func TestMultiFlitMeasuredLatencyIncludesSerialization(t *testing.T) {
	f := testFF(t, 4, 2)
	res1, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, multiflitConfig(1), RunConfig{
		Load: 0.2, Source: traffic.NewBernoulli(traffic.NewUniform(16)), Warmup: 400, Measure: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, multiflitConfig(4), RunConfig{
		Load: 0.2, Source: traffic.NewBernoulli(traffic.NewUniform(16)), Warmup: 400, Measure: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res4.AvgLatency < res1.AvgLatency+2 {
		t.Fatalf("size-4 latency %.2f should exceed size-1 latency %.2f by ~3 cycles",
			res4.AvgLatency, res1.AvgLatency)
	}
	// Accepted rate is reported in flits: at 20% offered flit load both
	// should accept ~0.2.
	if res4.AcceptedRate < 0.16 || res4.AcceptedRate > 0.24 {
		t.Fatalf("size-4 accepted flit rate = %.3f, want ~0.2", res4.AcceptedRate)
	}
}
