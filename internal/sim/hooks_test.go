package sim

import (
	"io"
	"reflect"
	"testing"

	"flatnet/internal/traffic"
)

// TestRunLoadPointAttachDeliver: a Deliver set a caller installs through
// RunConfig.Attach runs beside the harness's own delivery accounting and
// fires once per delivered packet.
func TestRunLoadPointAttachDeliver(t *testing.T) {
	f := testFF(t, 4, 2)
	var seen, delivered int64
	_, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, DefaultConfig(), RunConfig{
		Load: 0.3, Source: traffic.NewBernoulli(traffic.NewUniform(f.NumNodes)),
		Warmup: 100, Measure: 100,
		Attach: func(n *Network) {
			n.AttachHooks(&Hooks{Deliver: func(*Packet, int64) { seen++ }})
		},
		Observe: func(n *Network) { _, delivered = n.Totals() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered == 0 || seen != delivered {
		t.Fatalf("the caller's Deliver fired %d times for %d deliveries", seen, delivered)
	}
}

// TestRecordTracesCompose: two recorders on one network both fill with
// the same entries, and a third Materialize set beside them fires too.
func TestRecordTracesCompose(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(f.NumNodes))
	a := n.RecordTrace()
	materialized := 0
	n.AttachHooks(&Hooks{Materialize: func(*Packet) { materialized++ }})
	b := n.RecordTrace()
	for i := 0; i < 200; i++ {
		MustGenerate(t, n, 0.3)
		n.Step()
	}
	inj, _ := n.Totals()
	if inj == 0 || int64(len(*a)) != inj || int64(materialized) != inj {
		t.Fatalf("recorder holds %d entries and the Materialize set fired %d times for %d packets",
			len(*a), materialized, inj)
	}
	if !reflect.DeepEqual(*a, *b) {
		t.Fatal("two recorders on one network differ")
	}
}

// TestSnapshotPacketHooks pins the Snapshot rule: sets of only Materialize
// and Deliver callbacks do not block a snapshot; a set with any pipeline
// callback does until it is detached, and detaching it removes it from
// both lists.
func TestSnapshotPacketHooks(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(f.NumNodes))
	n.RecordTrace()
	n.AttachHooks(&Hooks{Deliver: func(*Packet, int64) {}})
	if err := n.Snapshot(io.Discard); err != nil {
		t.Fatalf("Snapshot refused packet-only hook sets: %v", err)
	}
	mixed := 0
	detach := n.AttachHooks(&Hooks{Deliver: func(*Packet, int64) { mixed++ }, EndCycle: func() {}})
	if n.Snapshot(io.Discard) == nil {
		t.Fatal("Snapshot accepted a network with a pipeline hook set attached")
	}
	detach()
	if err := n.Snapshot(io.Discard); err != nil {
		t.Fatalf("Snapshot after the pipeline set detached: %v", err)
	}
	for i := 0; i < 100; i++ {
		MustGenerate(t, n, 0.3)
		n.Step()
	}
	if _, del := n.Totals(); del == 0 || mixed != 0 {
		t.Fatalf("detached set's Deliver fired %d times (%d deliveries)", mixed, del)
	}
}
