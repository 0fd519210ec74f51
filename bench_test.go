// Benchmarks of the engine itself: the cycle core's raw rate on two
// workloads, the snapshot round trip, the zero-overhead-when-off guards
// for telemetry and the sanitizer, and four ablations of §3's router
// parameters. The paper's figure claims are asserted once, by the claims
// table in internal/experiments.
package flatnet_test

import (
	"bytes"
	"testing"

	"flatnet"
)

// injectUniform installs uniform-random traffic under the Bernoulli
// arrival process, the paper's open-loop injection.
func injectUniform(b *testing.B, n *flatnet.Network) {
	b.Helper()
	if err := n.SetSource(flatnet.NewBernoulliSource(flatnet.NewUniform(n.NumNodes()))); err != nil {
		b.Fatal(err)
	}
}

// cycle advances n by one cycle at 50% offered load.
func cycle(b *testing.B, n *flatnet.Network) { cycleAt(b, n, 0.5) }

// cycleAt advances n by one cycle at the given offered load.
func cycleAt(b *testing.B, n *flatnet.Network, load float64) {
	if err := n.Generate(load); err != nil {
		b.Fatal(err)
	}
	n.Step()
}

// BenchmarkSimulatorCycles measures the simulator's raw cycle rate on the
// paper's 32-ary 2-flat under CLOS AD at 50% uniform load — a
// performance baseline for the engine itself rather than a paper figure.
// A warmup reaches steady state before the timer starts so the allocation
// figure reflects the hot path's zero-alloc contract (pools and calendar
// slots are grown during warmup, then recycled forever after).
func BenchmarkSimulatorCycles(b *testing.B) {
	ff, err := flatnet.NewFlatFly(32, 2)
	if err != nil {
		b.Fatal(err)
	}
	n, err := flatnet.NewNetwork(ff.Graph(), flatnet.NewClosAD(ff), flatnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	injectUniform(b, n)
	for i := 0; i < 2000; i++ {
		cycle(b, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(b, n)
	}
	b.ReportMetric(float64(ff.NumNodes), "nodes")
}

// BenchmarkSimulatorCyclesWC is the routing-bound twin of
// BenchmarkSimulatorCycles and flatbench core_wc's configuration: the same
// network and algorithm under the worst-case pattern at 40% load, where
// nearly every packet is routed non-minimally and CLOS AD's comparison of
// all non-minimal queues (ClosAD.decide and ascend) dominates the cycle.
func BenchmarkSimulatorCyclesWC(b *testing.B) {
	ff, err := flatnet.NewFlatFly(32, 2)
	if err != nil {
		b.Fatal(err)
	}
	n, err := flatnet.NewNetwork(ff.Graph(), flatnet.NewClosAD(ff), flatnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	wc := flatnet.NewWorstCase(ff.K, ff.NumRouters)
	if err := n.SetSource(flatnet.NewBernoulliSource(wc)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		cycleAt(b, n, 0.4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycleAt(b, n, 0.4)
	}
	b.ReportMetric(float64(ff.NumNodes), "nodes")
}

// BenchmarkSnapshotRestore measures the checkpoint/restore round trip
// on the §3.2 network: one op serializes the warmed 1024-terminal
// 32-ary 2-flat (Network.Snapshot) and rebuilds an identical network
// from the bytes (Restore). This is the cost a warm-start sweep pays
// instead of re-running warm-up, so it must stay far below the warm-up
// it replaces. Restore materializes a whole network, so the op
// allocates by design; flatbench's traced sim.restore_ms row records its
// cost per PR.
func BenchmarkSnapshotRestore(b *testing.B) {
	ff, err := flatnet.NewFlatFly(32, 2)
	if err != nil {
		b.Fatal(err)
	}
	alg := flatnet.NewClosAD(ff)
	n, err := flatnet.NewNetwork(ff.Graph(), alg, flatnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	injectUniform(b, n)
	for i := 0; i < 2000; i++ {
		cycle(b, n)
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	size := buf.Len()
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := n.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		r, err := flatnet.Restore(bytes.NewReader(buf.Bytes()), ff.Graph(), alg, flatnet.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	b.ReportMetric(float64(size), "snapshot_bytes")
}

// BenchmarkTelemetryOff is the zero-overhead-when-off guard: the exact
// BenchmarkSimulatorCycles workload on a network with no hook set
// attached (no probes, tracer or sanitizer), exercising every pipeline
// site's empty hook-list check. Compare against BenchmarkSimulatorCycles;
// the two must stay within noise (~2%) of each other.
func BenchmarkTelemetryOff(b *testing.B) {
	ff, err := flatnet.NewFlatFly(32, 2)
	if err != nil {
		b.Fatal(err)
	}
	n, err := flatnet.NewNetwork(ff.Graph(), flatnet.NewClosAD(ff), flatnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	injectUniform(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(b, n)
	}
	b.ReportMetric(float64(ff.NumNodes), "nodes")
}

// BenchmarkTelemetryProbes measures the same workload with the probe
// registry attached at the default stride — the instrumented-on cost.
func BenchmarkTelemetryProbes(b *testing.B) {
	ff, err := flatnet.NewFlatFly(32, 2)
	if err != nil {
		b.Fatal(err)
	}
	n, err := flatnet.NewNetwork(ff.Graph(), flatnet.NewClosAD(ff), flatnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	injectUniform(b, n)
	p := n.AttachProbes(flatnet.ProbeConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(b, n)
	}
	b.ReportMetric(float64(p.Samples), "probe_samples")
}

// BenchmarkChecksOn measures the same workload with the sanitizer
// attached — the price of a fully audited run.
func BenchmarkChecksOn(b *testing.B) {
	ff, err := flatnet.NewFlatFly(32, 2)
	if err != nil {
		b.Fatal(err)
	}
	n, err := flatnet.NewNetwork(ff.Graph(), flatnet.NewClosAD(ff), flatnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	injectUniform(b, n)
	s := flatnet.AttachChecker(n, flatnet.CheckConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(b, n)
	}
	b.StopTimer()
	if len(s.Violations()) != 0 {
		b.Fatalf("sanitizer tripped during benchmark: %v", s.Err())
	}
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out. ---

// BenchmarkAblation_GreedyVsSequential quantifies the sequential
// allocator's benefit (§3.1): the ratio of greedy UGAL to UGAL-S
// normalized latency on a small worst-case batch.
func BenchmarkAblation_GreedyVsSequential(b *testing.B) {
	ff, err := flatnet.NewFlatFly(16, 2)
	if err != nil {
		b.Fatal(err)
	}
	wc := flatnet.NewWorstCase(ff.K, ff.NumRouters)
	var ratio float64
	for i := 0; i < b.N; i++ {
		greedy, err := flatnet.RunBatch(ff.Graph(), flatnet.NewUGAL(ff), flatnet.DefaultConfig(),
			flatnet.BatchConfig{Pattern: wc, BatchSize: 2})
		if err != nil {
			b.Fatal(err)
		}
		seq, err := flatnet.RunBatch(ff.Graph(), flatnet.NewUGALS(ff), flatnet.DefaultConfig(),
			flatnet.BatchConfig{Pattern: wc, BatchSize: 2})
		if err != nil {
			b.Fatal(err)
		}
		ratio = greedy.NormalizedLatency / seq.NormalizedLatency
	}
	b.ReportMetric(ratio, "greedy_vs_sequential_latency_x")
}

// BenchmarkAblation_SwitchSpeedup quantifies the §3.2 "sufficient switch
// speedup" assumption: uniform-random saturation throughput with the
// crossbar limited to one grant per port per cycle versus unlimited.
func BenchmarkAblation_SwitchSpeedup(b *testing.B) {
	ff, err := flatnet.NewFlatFly(16, 2)
	if err != nil {
		b.Fatal(err)
	}
	ur := flatnet.NewUniform(ff.NumNodes)
	alg := flatnet.NewMinAD(ff)
	var limited, unlimited float64
	for i := 0; i < b.N; i++ {
		cfg := flatnet.DefaultConfig()
		cfg.Speedup = 1
		var err error
		limited, err = flatnet.SaturationThroughput(ff.Graph(), alg, cfg, ur, 400, 800)
		if err != nil {
			b.Fatal(err)
		}
		unlimited, err = flatnet.SaturationThroughput(ff.Graph(), alg, flatnet.DefaultConfig(), ur, 400, 800)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(limited, "sat_speedup1")
	b.ReportMetric(unlimited, "sat_unlimited")
}

// BenchmarkAblation_BufferDepth quantifies the effect of per-port
// buffering on adversarial throughput (the knob behind Fig 12(b)).
func BenchmarkAblation_BufferDepth(b *testing.B) {
	ff, err := flatnet.NewFlatFly(16, 2)
	if err != nil {
		b.Fatal(err)
	}
	wc := flatnet.NewWorstCase(ff.K, ff.NumRouters)
	var shallow, deep float64
	for i := 0; i < b.N; i++ {
		cfg := flatnet.DefaultConfig()
		cfg.BufPerPort = 8
		var err error
		shallow, err = flatnet.SaturationThroughput(ff.Graph(), flatnet.NewClosAD(ff), cfg, wc, 400, 800)
		if err != nil {
			b.Fatal(err)
		}
		deep, err = flatnet.SaturationThroughput(ff.Graph(), flatnet.NewClosAD(ff), flatnet.DefaultConfig(), wc, 400, 800)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(shallow, "sat_buf8")
	b.ReportMetric(deep, "sat_buf32")
}

// BenchmarkAblation_PacketSize quantifies the §3.2 note-2 claim at the
// benchmark level: worst-case saturation throughput of CLOS AD at packet
// sizes 1 and 4.
func BenchmarkAblation_PacketSize(b *testing.B) {
	ff, err := flatnet.NewFlatFly(16, 2)
	if err != nil {
		b.Fatal(err)
	}
	wc := flatnet.NewWorstCase(ff.K, ff.NumRouters)
	var s1, s4 float64
	for i := 0; i < b.N; i++ {
		var err error
		s1, err = flatnet.SaturationThroughput(ff.Graph(), flatnet.NewClosAD(ff), flatnet.DefaultConfig(), wc, 400, 800)
		if err != nil {
			b.Fatal(err)
		}
		cfg := flatnet.DefaultConfig()
		cfg.PacketSize = 4
		s4, err = flatnet.SaturationThroughput(ff.Graph(), flatnet.NewClosAD(ff), cfg, wc, 400, 800)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s1, "sat_size1")
	b.ReportMetric(s4, "sat_size4")
}
