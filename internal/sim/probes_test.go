package sim

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"flatnet/internal/telemetry"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

func TestProbeSamplingStride(t *testing.T) {
	f := testFF(t, 4, 2)
	for _, stride := range []int{1, 32, 100} {
		n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		MustInstall(t, n, traffic.NewUniform(16))
		p := n.AttachProbes(ProbeConfig{Stride: stride})
		if p.Stride() != int64(stride) {
			t.Fatalf("stride %d: Stride() = %d", stride, p.Stride())
		}
		const cycles = 256
		for i := 0; i < cycles; i++ {
			MustGenerate(t, n, 0.3)
			n.Step()
		}
		// Step samples whenever cycle%stride == 0, cycle 0 included.
		want := int64((cycles + stride - 1) / stride)
		if p.Samples != want {
			t.Errorf("stride %d: Samples = %d, want %d", stride, p.Samples, want)
		}
	}
}

func TestProbeDefaultsAndDetach(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n.Probes() != nil {
		t.Fatal("fresh network has probes attached")
	}
	detach := n.AttachHooks(&Hooks{})
	if n.Snapshot(io.Discard) == nil {
		t.Error("Snapshot accepted a network with a hook set attached")
	}
	detach()
	detach() // idempotent
	if err := n.Snapshot(io.Discard); err != nil {
		t.Errorf("Snapshot after the only hook set detached: %v", err)
	}
	tr := telemetry.NewTracer(1 << 10)
	n.AttachTracer(tr)
	p := n.AttachProbes(ProbeConfig{})
	if p.Stride() != 64 {
		t.Errorf("default stride = %d, want 64", p.Stride())
	}
	if n.Probes() != p {
		t.Error("Probes() does not return the attached registry")
	}
	// Every non-unused output channel is instrumented.
	want := 0
	for _, r := range f.Graph().Routers {
		for _, o := range r.Out {
			if o.Kind != topo.Unused {
				want++
			}
		}
	}
	if got := len(p.Channels()); got != want {
		t.Errorf("instrumented %d channels, want %d", got, want)
	}
	n.DetachProbes()
	if n.Probes() != nil {
		t.Error("DetachProbes left probes attached")
	}
	// Only the probes' own set went: the tracer attached before them
	// keeps recording, the detached registry stops sampling.
	MustInstall(t, n, traffic.NewUniform(16))
	for i := 0; i < 64; i++ {
		MustGenerate(t, n, 0.3)
		n.Step()
	}
	if tr.Len() == 0 {
		t.Error("DetachProbes detached the tracer too")
	}
	if p.Samples != 0 {
		t.Errorf("detached probes kept sampling: %d samples", p.Samples)
	}
}

func TestProbeCountersUnderLoad(t *testing.T) {
	f := testFF(t, 4, 2)
	// Shallow buffers so downstream credits genuinely exhaust: worst-case
	// traffic offers 4 flits/cycle to a channel draining 1/cycle.
	cfg := DefaultConfig()
	cfg.BufPerPort = 4
	n, err := New(f.Graph(), &minimalAlg{f}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Worst-case traffic at full load through minimal routing: heavy
	// contention, so every counter class must fire.
	MustInstall(t, n, traffic.NewWorstCase(4, 4))
	p := n.AttachProbes(ProbeConfig{Stride: 16})
	for i := 0; i < 600; i++ {
		MustGenerate(t, n, 1.0)
		n.Step()
	}
	if p.Grants == 0 {
		t.Error("no grants counted")
	}
	if p.Conflicts == 0 {
		t.Error("no allocator conflicts under saturating worst-case load")
	}
	if p.CreditStalls == 0 {
		t.Error("no credit stalls under saturating worst-case load")
	}
	if p.MeanBufferedFlits() <= 0 || p.MaxVCOcc <= 0 {
		t.Errorf("occupancy not observed: mean %v max %d", p.MeanBufferedFlits(), p.MaxVCOcc)
	}
	if p.MeanVCOccupancy() <= 0 {
		t.Error("mean VC occupancy not observed")
	}
	// Worst-case minimal routing concentrates all traffic on one network
	// channel per router: exactly 4 hot channels on this network.
	top := p.TopChannels(5)
	if len(top) == 0 {
		t.Fatal("no hot channels reported")
	}
	if top[0].Flits <= 0 {
		t.Error("hottest channel has no flits")
	}
	for i, c := range top {
		if c.Kind != topo.Network {
			t.Errorf("top channel %d is kind %v, want Network", i, c.Kind)
		}
		if i > 0 && top[i-1].Flits < c.Flits {
			t.Error("TopChannels not sorted descending")
		}
		if i < 4 && c.Flits <= 0 {
			t.Errorf("hot channel %d has no flits", i)
		}
	}
	// Scalar snapshot carries the counters for the metrics endpoint.
	snap := p.Snapshot()
	if snap["grants"] != p.Grants || snap["samples"] != p.Samples {
		t.Errorf("snapshot disagrees with counters: %v", snap)
	}
	// A single-flit packet frees its VC in the traversal that takes it,
	// so only wormholes of several flits can stall on VC ownership.
	if p.VCStalls != 0 {
		t.Errorf("%d VC stalls with single-flit packets", p.VCStalls)
	}
	cfg.PacketSize = 4
	n, err = New(f.Graph(), &minimalAlg{f}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewWorstCase(4, 4))
	p = n.AttachProbes(ProbeConfig{Stride: 16})
	for i := 0; i < 600; i++ {
		MustGenerate(t, n, 1.0)
		n.Step()
	}
	if p.VCStalls == 0 {
		t.Error("no VC stalls with 4-flit wormholes under saturating load")
	}
}

func TestProbesSurviveChannelStatsReset(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(16))
	p := n.AttachProbes(ProbeConfig{Stride: 16})
	for i := 0; i < 200; i++ {
		MustGenerate(t, n, 0.4)
		n.Step()
	}
	n.ResetChannelStats() // zeroes flitsSent under the probes
	for i := 0; i < 200; i++ {
		MustGenerate(t, n, 0.4)
		n.Step()
	}
	for _, c := range p.Channels() {
		if c.Flits < 0 {
			t.Fatalf("channel %d.%d probed flits went negative after reset: %d",
				c.Router, c.Port, c.Flits)
		}
		for _, b := range c.Series.Buckets() {
			if b.Count < 0 {
				t.Fatalf("channel %d.%d has negative bucket %+v", c.Router, c.Port, b)
			}
		}
	}
}

// TestTracerPipelineOrder follows one worst-case-pattern packet through
// the full pipeline and checks the recorded stage order, then validates
// the lossless Chrome-trace round trip the exporters promise.
func TestTracerPipelineOrder(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewWorstCase(4, 4))
	tr := telemetry.NewTracer(1 << 16)
	n.AttachTracer(tr)
	for i := 0; i < 200; i++ {
		MustGenerate(t, n, 0.2)
		n.Step()
	}
	if tr.Len() == 0 {
		t.Fatal("no events recorded")
	}
	// Find a packet whose journey completed (has an eject).
	var packet int64 = -1
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.EvEject && ev.Tail {
			packet = ev.Packet
			break
		}
	}
	if packet < 0 {
		t.Fatal("no packet completed during the trace")
	}
	evs := tr.PacketEvents(packet)
	if first := evs[0]; first.Kind != telemetry.EvInject {
		t.Fatalf("first event is %v, want inject (events: %+v)", first.Kind, evs)
	}
	var sawRoute, sawXbar, sawEject bool
	for i, ev := range evs {
		if ev.Packet != packet {
			t.Fatal("PacketEvents returned a foreign event")
		}
		if i > 0 && ev.Cycle < evs[i-1].Cycle {
			t.Fatalf("events out of cycle order: %+v", evs)
		}
		switch ev.Kind {
		case telemetry.EvRoute:
			sawRoute = true
			if sawEject {
				t.Fatal("route after eject")
			}
		case telemetry.EvXbar:
			sawXbar = true
			if !sawRoute {
				t.Fatal("crossbar traversal before any routing decision")
			}
		case telemetry.EvEject:
			sawEject = true
		case telemetry.EvInject:
			if i != 0 {
				t.Fatal("inject is not the first event of a single-flit packet")
			}
		}
	}
	if !sawRoute || !sawXbar || !sawEject {
		t.Fatalf("incomplete pipeline: route=%v xbar=%v eject=%v", sawRoute, sawXbar, sawEject)
	}

	// The WC packet's trace must round-trip losslessly through the
	// Chrome-trace exporter.
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, evs) {
		t.Errorf("chrome round trip mismatch:\n got %+v\nwant %+v", back, evs)
	}
}

// TestRunLoadPointTelemetry exercises the instrumentation plumbing end
// to end: probes and tracer installed through Attach, read back through
// Observe.
func TestRunLoadPointTelemetry(t *testing.T) {
	f := testFF(t, 4, 2)
	tr := telemetry.NewTracer(1 << 14)
	var observed *Probes
	res, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, DefaultConfig(), RunConfig{
		Load: 0.2, Source: traffic.NewBernoulli(traffic.NewUniform(16)),
		Warmup: 200, Measure: 200,
		Attach: func(n *Network) {
			n.AttachProbes(ProbeConfig{Stride: 16})
			n.AttachTracer(tr)
		},
		Observe: func(n *Network) {
			observed = n.Probes()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed == nil {
		t.Fatal("Observe hook not called")
	}
	if observed.Samples == 0 || observed.Grants == 0 {
		t.Errorf("probes recorded nothing: samples %d grants %d", observed.Samples, observed.Grants)
	}
	if tr.Len() == 0 {
		t.Error("tracer recorded nothing")
	}
	if res.P50Latency <= 0 || res.P95Latency < res.P50Latency ||
		res.P99Latency < res.P95Latency || res.MaxLatency < res.P99Latency {
		t.Errorf("percentiles not ordered: p50 %d p95 %d p99 %d max %d",
			res.P50Latency, res.P95Latency, res.P99Latency, res.MaxLatency)
	}
}
