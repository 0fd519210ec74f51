package sim

import (
	"bytes"
	"testing"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

func TestInjectAtDeliversToExplicitDest(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No pattern installed: only trace packets flow.
	var got []topo.NodeID
	n.AttachHooks(&Hooks{Deliver: func(p *Packet, _ int64) { got = append(got, p.Dst) }})
	if err := n.InjectAt(0, 0, 13); err != nil {
		t.Fatal(err)
	}
	if err := n.InjectAt(5, 1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		n.Step()
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
	seen := map[topo.NodeID]bool{got[0]: true, got[1]: true}
	if !seen[13] || !seen[2] {
		t.Fatalf("wrong destinations: %v", got)
	}
}

func TestInjectAtValidation(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InjectAt(-1, 0, 0); err == nil {
		t.Error("negative source accepted")
	}
	if err := n.InjectAt(0, 0, 99); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestRecordReplayIdentical(t *testing.T) {
	// Record a Bernoulli run, replay the trace, and verify the delivered
	// (src, dst) multiset and count match exactly.
	f := testFF(t, 4, 2)
	n1, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n1, traffic.NewUniform(f.NumNodes))
	rec := n1.RecordTrace()
	type key struct{ s, d topo.NodeID }
	count1 := map[key]int{}
	n1.AttachHooks(&Hooks{Deliver: func(p *Packet, _ int64) { count1[key{p.Src, p.Dst}]++ }})
	for i := 0; i < 300; i++ {
		MustGenerate(t, n1, 0.3)
		n1.Step()
	}
	for i := 0; i < 500; i++ {
		n1.Step()
	}
	inj1, del1 := n1.Totals()
	if inj1 != del1 || inj1 == 0 {
		t.Fatalf("recording run did not drain: %d/%d", inj1, del1)
	}
	if int64(len(*rec)) != inj1 {
		t.Fatalf("recorded %d entries, injected %d", len(*rec), inj1)
	}

	n2, err := New(f.Graph(), &minimalAlg{f}, Config{Seed: 99, BufPerPort: 32})
	if err != nil {
		t.Fatal(err)
	}
	count2 := map[key]int{}
	n2.AttachHooks(&Hooks{Deliver: func(p *Packet, _ int64) { count2[key{p.Src, p.Dst}]++ }})
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, *rec); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.ReplayTrace(NewTraceScanner(&buf), 1500, nil); err != nil {
		t.Fatal(err)
	}
	_, del2 := n2.Totals()
	if del2 != del1 {
		t.Fatalf("replay delivered %d, want %d", del2, del1)
	}
	if len(count1) != len(count2) {
		t.Fatalf("flow sets differ: %d vs %d", len(count1), len(count2))
	}
	for k, v := range count1 {
		if count2[k] != v {
			t.Fatalf("flow %v: %d vs %d", k, v, count2[k])
		}
	}
}

func TestTraceFutureTimestampsWait(t *testing.T) {
	// A trace arrival with a future timestamp must not enter the network
	// before its time: its measured latency starts at the trace cycle.
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var lat int64 = -1
	n.AttachHooks(&Hooks{Deliver: func(p *Packet, cycle int64) { lat = cycle - p.InjectCycle }})
	if err := n.InjectAt(0, 50, 15); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		n.Step()
	}
	if inj, _ := n.Totals(); inj != 0 {
		t.Fatal("future arrival materialized early")
	}
	for i := 0; i < 40; i++ {
		n.Step()
	}
	if lat < 0 {
		t.Fatal("trace packet not delivered")
	}
	if lat != 2 {
		t.Fatalf("latency = %d, want 2 (one network hop + ejection)", lat)
	}
}
