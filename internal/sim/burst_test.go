package sim

import (
	"math"
	"testing"

	"flatnet/internal/traffic"
)

func mustOnOff(t *testing.T, pat traffic.Pattern, peak, avgBurst float64) *traffic.OnOff {
	t.Helper()
	src, err := traffic.NewOnOff(pat, peak, avgBurst)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestOnOffValidation(t *testing.T) {
	f := testFF(t, 4, 2)
	u := traffic.NewUniform(16)
	if _, err := traffic.NewOnOff(u, 0, 4); err == nil {
		t.Error("peak 0 accepted")
	}
	if _, err := traffic.NewOnOff(u, 1.5, 4); err == nil {
		t.Error("peak > 1 accepted")
	}
	if _, err := traffic.NewOnOff(u, 0.8, 0.5); err == nil {
		t.Error("burst < 1 accepted")
	}
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Generate(0.5); err == nil {
		t.Error("Generate with no source installed accepted")
	}
	if err := n.SetSource(mustOnOff(t, u, 0.5, 4)); err != nil {
		t.Fatal(err)
	}
	if err := n.Generate(0.9); err == nil {
		t.Error("load > peak accepted")
	}
	if err := n.Generate(0.2); err != nil {
		t.Errorf("valid parameters rejected: %v", err)
	}
}

func TestOnOffAverageRate(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetSource(mustOnOff(t, traffic.NewUniform(16), 0.8, 10)); err != nil {
		t.Fatal(err)
	}
	const cycles = 40000
	const load = 0.2
	for i := 0; i < cycles; i++ {
		if err := n.Generate(load); err != nil {
			t.Fatal(err)
		}
		n.Step()
	}
	// Generated = materialized + still backlogged; compare to target.
	injected, _ := n.Totals()
	genRate := (float64(injected) + float64(n.Backlog())) / (cycles * 16)
	if math.Abs(genRate-load) > 0.02 {
		t.Fatalf("on/off average rate = %.3f, want ~%.2f", genRate, load)
	}
}

func TestOnOffBurstierThanBernoulli(t *testing.T) {
	// At equal average load, bursty arrivals queue more whenever the peak
	// rate exceeds the sustainable rate. Use the worst-case pattern with
	// minimal routing (capacity 1/k = 1/8): an average load of 0.06 is
	// comfortable for Bernoulli arrivals, but on/off bursts at peak 1.0
	// dwarf the drain rate and build deep queues.
	f := testFF(t, 8, 2)
	run := func(bursty bool) float64 {
		n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		wc := traffic.NewWorstCase(f.K, f.NumRouters)
		if bursty {
			err = n.SetSource(mustOnOff(t, wc, 1.0, 25))
		} else {
			err = n.SetSource(traffic.NewBernoulli(wc))
		}
		if err != nil {
			t.Fatal(err)
		}
		n.SetMeasurementWindow(1000, 4000)
		var sum, count float64
		n.AttachHooks(&Hooks{Deliver: func(p *Packet, cycle int64) {
			if p.Measured {
				sum += float64(cycle - p.InjectCycle)
				count++
			}
		}})
		for i := 0; i < 6000; i++ {
			if err := n.Generate(0.06); err != nil {
				t.Fatal(err)
			}
			n.Step()
		}
		if count == 0 {
			t.Fatal("no measured deliveries")
		}
		return sum / count
	}
	bern := run(false)
	burst := run(true)
	if burst < 2*bern {
		t.Fatalf("bursty latency %.2f should clearly exceed Bernoulli %.2f at equal load", burst, bern)
	}
}

func TestRunLoadPointWithBurst(t *testing.T) {
	f := testFF(t, 8, 2)
	base := RunConfig{
		Load: 0.06, Source: traffic.NewBernoulli(traffic.NewWorstCase(8, 8)),
		Warmup: 800, Measure: 800, MaxCycles: 20000,
	}
	bern, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, DefaultConfig(), base)
	if err != nil {
		t.Fatal(err)
	}
	burst := base
	burst.Source = mustOnOff(t, traffic.NewWorstCase(8, 8), 1.0, 25)
	by, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, DefaultConfig(), burst)
	if err != nil {
		t.Fatal(err)
	}
	if by.AvgLatency < 1.5*bern.AvgLatency {
		t.Fatalf("bursty run latency %.2f should exceed Bernoulli %.2f", by.AvgLatency, bern.AvgLatency)
	}
	// The source's LoadValidator rejects a load its peak cannot offer.
	bad := base
	bad.Source = mustOnOff(t, traffic.NewWorstCase(8, 8), 0.01, 25) // peak < load
	if _, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, DefaultConfig(), bad); err == nil {
		t.Error("peak below load accepted")
	}
}
