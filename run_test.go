package flatnet_test

import (
	"reflect"
	"testing"

	"flatnet"
)

// TestRunDefaults exercises the zero-option form: 50% uniform load on
// the default router configuration.
func TestRunDefaults(t *testing.T) {
	ff, err := flatnet.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := flatnet.Run(ff, flatnet.NewClosAD(ff))
	if err != nil {
		t.Fatal(err)
	}
	if res.Load != 0.5 {
		t.Fatalf("default load = %v, want 0.5", res.Load)
	}
	if res.Saturated {
		t.Fatal("50% uniform load saturated CLOS AD")
	}
	if res.MeasuredDelivered == 0 || res.MeasuredDelivered != res.MeasuredCreated {
		t.Fatalf("measured packets not drained: %d/%d", res.MeasuredDelivered, res.MeasuredCreated)
	}
}

// TestRunMatchesRunLoadPoint pins Run as a pure front end: the same
// options must give bit-identical results to the positional RunLoadPoint
// call it wraps.
func TestRunMatchesRunLoadPoint(t *testing.T) {
	ff, err := flatnet.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	wc := flatnet.NewWorstCase(ff.K, ff.NumRouters)
	got, err := flatnet.Run(ff, flatnet.NewUGALS(ff),
		flatnet.WithLoad(0.3),
		flatnet.WithPattern(wc),
		flatnet.WithWarmup(300),
		flatnet.WithMeasure(300),
		flatnet.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := flatnet.DefaultConfig()
	cfg.Seed = 7
	want, err := flatnet.RunLoadPoint(ff.Graph(), flatnet.NewUGALS(ff), cfg, flatnet.RunConfig{
		Load: 0.3, Source: flatnet.NewBernoulliSource(wc), Warmup: 300, Measure: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Run diverged from RunLoadPoint:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunWithCheckAndTelemetry exercises the instrumentation options
// together: the sanitizer must stay silent on a clean run, the probes
// must be observable, and two tracers must both record the whole event
// stream, without perturbing the measured results.
func TestRunWithCheckAndTelemetry(t *testing.T) {
	ff, err := flatnet.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := flatnet.Run(ff, flatnet.NewMinAD(ff),
		flatnet.WithLoad(0.4), flatnet.WithWarmup(300), flatnet.WithMeasure(300))
	if err != nil {
		t.Fatal(err)
	}
	var probed *flatnet.Probes
	a, b := flatnet.NewTracer(1<<16), flatnet.NewTracer(1<<16)
	res, err := flatnet.Run(ff, flatnet.NewMinAD(ff),
		flatnet.WithLoad(0.4), flatnet.WithWarmup(300), flatnet.WithMeasure(300),
		flatnet.WithTracer(a),
		flatnet.WithCheck(flatnet.CheckConfig{}),
		flatnet.WithTelemetry(flatnet.ProbeConfig{}),
		flatnet.WithTracer(b),
		flatnet.WithObserve(func(n *flatnet.Network) { probed = n.Probes() }))
	if err != nil {
		t.Fatal(err)
	}
	if res != base {
		t.Fatalf("instrumentation perturbed the run:\n got %+v\nwant %+v", res, base)
	}
	if probed == nil || probed.Samples == 0 {
		t.Fatal("probes not attached or never sampled")
	}
	if a.Len() == 0 || !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("two tracers on one run recorded %d and %d events (or different streams)", a.Len(), b.Len())
	}
}

// TestRunStop verifies the cancellation hook aborts with ErrStopped.
func TestRunStop(t *testing.T) {
	ff, err := flatnet.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = flatnet.Run(ff, flatnet.NewMinAD(ff), flatnet.WithStop(func() bool { return true }))
	if err == nil {
		t.Fatal("stop hook did not abort the run")
	}
}

// TestRunValidation covers nil arguments.
func TestRunValidation(t *testing.T) {
	ff, err := flatnet.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flatnet.Run(nil, flatnet.NewMinAD(ff)); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := flatnet.Run(ff, nil); err == nil {
		t.Error("nil algorithm accepted")
	}
}
