package sim

import (
	"testing"

	"flatnet/internal/traffic"
)

func TestAgeArbiterBasicEquivalence(t *testing.T) {
	// At low load the arbiter choice is irrelevant: both deliver all
	// packets with similar latency.
	f := testFF(t, 4, 2)
	run := func(age bool) LoadPointResult {
		cfg := DefaultConfig()
		cfg.AgeArbiter = age
		res, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, cfg, RunConfig{
			Load: 0.2, Source: traffic.NewBernoulli(traffic.NewUniform(16)), Warmup: 300, Measure: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rr := run(false)
	age := run(true)
	if rr.Saturated || age.Saturated {
		t.Fatal("low load saturated")
	}
	if age.MeasuredDelivered != age.MeasuredCreated {
		t.Fatal("age arbiter lost packets")
	}
	if age.AvgLatency > 2*rr.AvgLatency+2 {
		t.Fatalf("age arbiter latency %.2f wildly above round-robin %.2f", age.AvgLatency, rr.AvgLatency)
	}
}

func TestAgeArbiterConservation(t *testing.T) {
	f := testFF(t, 4, 2)
	cfg := DefaultConfig()
	cfg.AgeArbiter = true
	cfg.PacketSize = 3
	n, err := New(f.Graph(), &minimalAlg{f}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(16))
	for i := 0; i < 600; i++ {
		MustGenerate(t, n, 0.6)
		n.Step()
		if i%100 == 0 {
			fi, fd := n.FlitTotals()
			buffered, inFlight := n.Inventory()
			if fi != fd+int64(buffered)+int64(inFlight) {
				t.Fatalf("cycle %d: conservation violated", i)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		n.Step()
	}
	pi, pd := n.Totals()
	if pi != pd {
		t.Fatalf("did not drain: %d/%d", pi, pd)
	}
}
