package sim

import (
	"testing"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// stepUntilDone advances the network (with optional background load)
// until the transfer completes or the cycle budget runs out.
func stepUntilDone(t *testing.T, n *Network, tr *Transfer, load float64, budget int64) {
	t.Helper()
	deadline := n.Cycle() + budget
	for !tr.Done() {
		if n.Cycle() >= deadline {
			t.Fatalf("transfer not done after %d cycles (%d/%d delivered)",
				budget, tr.Delivered(), tr.Packets())
		}
		if load > 0 {
			MustGenerate(t, n, load)
		}
		n.Step()
	}
}

// TestTransferZeroLoadLatency pins a single-packet transfer on an idle
// network to the exact zero-load latency: MinHops inter-router channels
// plus one ejection cycle.
func TestTransferZeroLoadLatency(t *testing.T) {
	f := testFF(t, 4, 2)
	g := f.Graph()
	n, err := New(g, &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(g.NumNodes))
	for src := 0; src < g.NumNodes; src += 3 {
		for dst := 0; dst < g.NumNodes; dst += 5 {
			tr, err := n.StartTransfer(topo.NodeID(src), topo.NodeID(dst), 1)
			if err != nil {
				t.Fatal(err)
			}
			stepUntilDone(t, n, tr, 0, 1000)
			hops := f.MinHops(g.NodeRouter[src], g.NodeRouter[dst])
			want := int64(hops + 1) // unit channels, 1-cycle ejection, 1-flit packets
			if tr.Latency() != want {
				t.Fatalf("transfer %d->%d: latency %d, want %d (hops %d)",
					src, dst, tr.Latency(), want, hops)
			}
			if tr.Hops() != hops {
				t.Fatalf("transfer %d->%d: hops %d, want %d", src, dst, tr.Hops(), hops)
			}
		}
	}
	if n.PendingTransfers() != 0 {
		t.Fatalf("tracking map holds %d packets after completion", n.PendingTransfers())
	}
}

// TestTransferMultiPacket verifies burst serialization: k packets from
// one source stream at one flit per cycle, so the tail latency grows by
// k-1 cycles over a single packet at zero load.
func TestTransferMultiPacket(t *testing.T) {
	f := testFF(t, 4, 2)
	g := f.Graph()
	n, err := New(g, &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(g.NumNodes))
	one, err := n.StartTransfer(0, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilDone(t, n, one, 0, 1000)
	const burst = 8
	many, err := n.StartTransfer(0, 9, burst)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilDone(t, n, many, 0, 1000)
	if many.Delivered() != burst {
		t.Fatalf("delivered %d of %d", many.Delivered(), burst)
	}
	want := one.Latency() + burst - 1
	if many.Latency() != want {
		t.Fatalf("burst of %d: latency %d, want %d (single was %d)",
			burst, many.Latency(), want, one.Latency())
	}
}

// TestTransferUnderLoad verifies transfers complete against background
// traffic, never report a latency below zero load, and do not disturb
// measurement-window accounting.
func TestTransferUnderLoad(t *testing.T) {
	f := testFF(t, 4, 2)
	g := f.Graph()
	n, err := New(g, &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(g.NumNodes))
	for i := 0; i < 300; i++ { // warm the network up
		MustGenerate(t, n, 0.4)
		n.Step()
	}
	zeroLoad := int64(f.MinHops(g.NodeRouter[0], g.NodeRouter[9]) + 1)
	for i := 0; i < 20; i++ {
		tr, err := n.StartTransfer(0, 9, 2)
		if err != nil {
			t.Fatal(err)
		}
		stepUntilDone(t, n, tr, 0.4, 100000)
		if tr.Latency() < zeroLoad {
			t.Fatalf("loaded latency %d below zero-load %d", tr.Latency(), zeroLoad)
		}
	}
	if created, delivered := n.MeasuredCounts(); created != 0 || delivered != 0 {
		t.Fatalf("transfers leaked into measurement accounting: created %d delivered %d",
			created, delivered)
	}
}

// TestTransferValidation exercises the argument checks.
func TestTransferValidation(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartTransfer(-1, 0, 1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := n.StartTransfer(0, topo.NodeID(f.NumNodes), 1); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if _, err := n.StartTransfer(0, 1, 0); err == nil {
		t.Fatal("zero-packet transfer accepted")
	}
}
