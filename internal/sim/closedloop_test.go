package sim

import (
	"testing"

	"flatnet/internal/traffic"
)

func TestClosedLoopValidation(t *testing.T) {
	f := testFF(t, 4, 2)
	if _, err := RunClosedLoop(f.Graph(), &minimalAlg{f}, DefaultConfig(), ClosedLoopConfig{
		Window: 0, Pattern: traffic.NewUniform(16), Warmup: 100, Measure: 100,
	}); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := RunClosedLoop(f.Graph(), &minimalAlg{f}, DefaultConfig(), ClosedLoopConfig{
		Window: 1, Pattern: nil, Warmup: 100, Measure: 100,
	}); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := RunClosedLoop(f.Graph(), &minimalAlg{f}, DefaultConfig(), ClosedLoopConfig{
		Window: 1, Pattern: traffic.NewUniform(16),
	}); err == nil {
		t.Error("zero windows accepted")
	}
}

func TestClosedLoopBasics(t *testing.T) {
	f := testFF(t, 8, 2)
	res, err := RunClosedLoop(f.Graph(), &minimalAlg{f}, DefaultConfig(), ClosedLoopConfig{
		Window:  2,
		Pattern: traffic.NewUniform(f.NumNodes),
		Warmup:  500,
		Measure: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no round trips completed")
	}
	// A round trip is two one-way trips: zero-load one-way is ~2-3
	// cycles, so RTT should be small but >= 4.
	if res.AvgRoundTrip < 4 || res.AvgRoundTrip > 40 {
		t.Fatalf("avg round trip %.2f implausible", res.AvgRoundTrip)
	}
	if res.P99RoundTrip < int(res.AvgRoundTrip) {
		t.Fatal("p99 below mean")
	}
	// Little's law: rate = window / RTT (per node), within slack for
	// transient effects.
	little := float64(2) / res.AvgRoundTrip
	if res.RequestRate < 0.5*little || res.RequestRate > 1.3*little {
		t.Fatalf("rate %.4f vs Little's-law estimate %.4f", res.RequestRate, little)
	}
}

func TestClosedLoopWindowScaling(t *testing.T) {
	// A larger window sustains a higher request rate until the network
	// saturates.
	f := testFF(t, 8, 2)
	rate := func(window int) float64 {
		res, err := RunClosedLoop(f.Graph(), &minimalAlg{f}, DefaultConfig(), ClosedLoopConfig{
			Window:  window,
			Pattern: traffic.NewUniform(f.NumNodes),
			Warmup:  500,
			Measure: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.RequestRate
	}
	r1, r4 := rate(1), rate(4)
	if r4 <= r1 {
		t.Fatalf("window 4 rate %.4f should exceed window 1 rate %.4f", r4, r1)
	}
}

func TestClosedLoopAdversarialPattern(t *testing.T) {
	// Under the worst-case request pattern, minimal routing's 1/k channel
	// bottleneck shows up as a round-trip-rate ceiling well below the
	// uniform case at the same window.
	f := testFF(t, 8, 2)
	run := func(p traffic.Pattern) float64 {
		res, err := RunClosedLoop(f.Graph(), &minimalAlg{f}, DefaultConfig(), ClosedLoopConfig{
			Window:  8,
			Pattern: p,
			Warmup:  500,
			Measure: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.RequestRate
	}
	ur := run(traffic.NewUniform(f.NumNodes))
	wc := run(traffic.NewWorstCase(f.K, f.NumRouters))
	if wc >= ur {
		t.Fatalf("adversarial closed-loop rate %.4f should trail uniform %.4f", wc, ur)
	}
}
