package sim_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// TestQueueEstRowMatchesPending holds the dense queue-estimate rows to
// the per-VC pending counts they summarise, after every Step of a loaded
// run: under a greedy allocator (UGAL: reservations fold in after the
// router's pass) and a sequential one (CLOS AD: they land at once), with
// 4-flit packets so reservations and credit returns differ in size, and
// across a Snapshot/Restore, which rebuilds the rows instead of storing
// them.
func TestQueueEstRowMatchesPending(t *testing.T) {
	ff, err := topo.NewFlatFly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, algName := range []string{"ugal", "clos"} {
		newAlg := func() sim.Algorithm {
			alg, err := routing.NewFlatFlyAlgorithm(algName, ff)
			if err != nil {
				t.Fatal(err)
			}
			return alg
		}
		cfg := sim.DefaultConfig()
		cfg.PacketSize = 4
		wc := traffic.NewWorstCase(ff.K, ff.NumRouters)
		run := func(n *sim.Network, cycles int) {
			t.Helper()
			sim.MustInstall(t, n, wc)
			for i := 0; i < cycles; i++ {
				sim.MustGenerate(t, n, 0.1)
				n.Step()
				if err := sim.CheckQueueEstRows(n); err != nil {
					t.Fatalf("%s: %v", algName, err)
				}
			}
		}
		a, err := sim.New(ff.Graph(), newAlg(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		run(a, 300)
		if _, delivered := a.Totals(); delivered == 0 {
			t.Fatalf("%s: nothing delivered, the run exercised no credit returns", algName)
		}
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatalf("%s: snapshot: %v", algName, err)
		}
		b, err := sim.Restore(bytes.NewReader(buf.Bytes()), ff.Graph(), newAlg(), cfg)
		if err != nil {
			t.Fatalf("%s: restore: %v", algName, err)
		}
		if err := sim.CheckQueueEstRows(b); err != nil {
			t.Fatalf("%s: restored: %v", algName, err)
		}
		run(b, 100)
	}
}

// TestRestoreRejectsOverflowingQueueEstimate forges a snapshot whose VCs
// each hold a valid pending count but whose port sum does not fit the
// int32 row entry: restored unchecked, the estimate wraps negative and
// every adaptive decision prefers that port.
func TestRestoreRejectsOverflowingQueueEstimate(t *testing.T) {
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	newAlg := func() sim.Algorithm { return routing.NewClosAD(ff) }
	n, err := sim.New(ff.Graph(), newAlg(), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	port := ff.PortFor(1, 1, 0) // router 0's channel to router 1
	sim.ForgePending(n, 0, port, 0, math.MaxInt32)
	sim.ForgePending(n, 0, port, 1, math.MaxInt32)
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = sim.Restore(bytes.NewReader(buf.Bytes()), ff.Graph(), newAlg(), sim.DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "invalid flow-control state") {
		t.Fatalf("restore of a snapshot whose port estimate overflows int32: got %v, want an invalid flow-control state error", err)
	}
}
