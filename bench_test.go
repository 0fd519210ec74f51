// Benchmarks: one per table and figure of the paper's evaluation. Each
// benchmark executes the corresponding experiment (at reduced "quick"
// scale for the simulation figures so iterations stay tractable) and
// reports the headline quantity of that figure via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as a regression harness for the
// reproduction. cmd/paperfigs runs the same experiments at paper scale.
package flatnet_test

import (
	"bytes"
	"testing"

	"flatnet"
	"flatnet/internal/experiments"
)

// BenchmarkFig02_Scalability evaluates the N(k', n') scaling relationship
// across the Fig. 2 design space.
func BenchmarkFig02_Scalability(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for kp := 4; kp <= 256; kp += 4 {
			for np := 1; np <= 4; np++ {
				sink += flatnet.NetworkSize(float64(kp), np)
			}
		}
	}
	b.ReportMetric(flatnet.NetworkSize(61, 3), "nodes_k61_n3")
	_ = sink
}

// BenchmarkFig04a_RoutingUR runs the five routing algorithms on uniform
// random traffic (quick scale) and reports CLOS AD's saturation
// throughput (paper: ~100% for all but VAL).
func BenchmarkFig04a_RoutingUR(b *testing.B) {
	var last []experiments.AlgSeries
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig4On(nil, "UR", experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	reportAlg(b, last, "CLOS AD", "clos_ad_ur_sat")
	reportAlg(b, last, "VAL", "val_ur_sat")
}

// BenchmarkFig04b_RoutingWC runs the worst-case pattern and reports the
// minimal-vs-non-minimal gap (paper: ~1/k vs ~50%).
func BenchmarkFig04b_RoutingWC(b *testing.B) {
	var last []experiments.AlgSeries
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig4On(nil, "WC", experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	reportAlg(b, last, "MIN AD", "min_ad_wc_sat")
	reportAlg(b, last, "CLOS AD", "clos_ad_wc_sat")
}

func reportAlg(b *testing.B, series []experiments.AlgSeries, name, metric string) {
	b.Helper()
	for _, s := range series {
		if s.Algorithm == name {
			b.ReportMetric(s.SaturationThroughput, metric)
			return
		}
	}
}

// BenchmarkFig05_DynamicResponse runs the batch experiments and reports
// greedy UGAL's and CLOS AD's normalized latency at the smallest batch
// (paper: UGAL much worse due to transient load imbalance).
func BenchmarkFig05_DynamicResponse(b *testing.B) {
	var last []experiments.BatchSeries
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig5On(nil, experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	for _, s := range last {
		switch s.Algorithm {
		case "UGAL":
			b.ReportMetric(s.Points[0].NormalizedLatency, "ugal_small_batch")
		case "CLOS AD":
			b.ReportMetric(s.Points[0].NormalizedLatency, "clos_ad_small_batch")
		}
	}
}

// BenchmarkFig06a_TopoUR compares the four topologies on uniform traffic
// and reports the tapered folded Clos's ~50% cap.
func BenchmarkFig06a_TopoUR(b *testing.B) {
	var last []experiments.TopoSeries
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig6On(nil, "UR", experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	for _, s := range last {
		if s.Algorithm == "adaptive sequential" {
			b.ReportMetric(s.SaturationThroughput, "clos_ur_sat")
		}
	}
}

// BenchmarkFig06b_TopoWC compares the four topologies on the worst-case
// pattern and reports the butterfly's collapse and the FB's 50%.
func BenchmarkFig06b_TopoWC(b *testing.B) {
	var last []experiments.TopoSeries
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig6On(nil, "WC", experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	for _, s := range last {
		switch s.Algorithm {
		case "destination":
			b.ReportMetric(s.SaturationThroughput, "butterfly_wc_sat")
		case "CLOS AD":
			b.ReportMetric(s.SaturationThroughput, "flatfly_wc_sat")
		}
	}
}

// BenchmarkFig07_CableCost evaluates the cable cost curve.
func BenchmarkFig07_CableCost(b *testing.B) {
	m := flatnet.DefaultCostModel()
	var sink float64
	for i := 0; i < b.N; i++ {
		for l := 0.5; l <= 20; l += 0.25 {
			sink += m.CableCostPerSignal(l)
		}
	}
	b.ReportMetric(m.CableCostPerSignal(2), "usd_per_signal_2m")
	_ = sink
}

var costBenchSizes = []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

// BenchmarkFig10_LinkCostRatio runs the link-fraction / cable-length
// sweep of Fig. 10.
func BenchmarkFig10_LinkCostRatio(b *testing.B) {
	m, p := flatnet.DefaultCostModel(), flatnet.DefaultPackaging()
	var last []flatnet.CostComparison
	for i := 0; i < b.N; i++ {
		rows, err := flatnet.CostSweep(costBenchSizes, m, p)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	b.ReportMetric(last[len(last)-1].FlatFly.LinkFraction, "fb_link_fraction_64k")
}

// BenchmarkFig11_CostPerNode runs the Fig. 11 cost sweep and reports the
// flattened butterfly's savings versus the folded Clos at 4K (paper: ~53%).
func BenchmarkFig11_CostPerNode(b *testing.B) {
	m, p := flatnet.DefaultCostModel(), flatnet.DefaultPackaging()
	var at4k float64
	for i := 0; i < b.N; i++ {
		rows, err := flatnet.CostSweep(costBenchSizes, m, p)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.N == 4096 {
				at4k = r.SavingsVsClos()
			}
		}
	}
	b.ReportMetric(at4k, "fb_savings_vs_clos_4k")
}

// BenchmarkFig12a_FixedN_VAL runs the fixed-N dimensionality study under
// VAL (throughput flat at ~50%, latency rising with n').
func BenchmarkFig12a_FixedN_VAL(b *testing.B) {
	var last []experiments.ConfigSeries
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig12On(nil, "VAL", 256, []float64{0.1, 0.3}, experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.ReportMetric(last[0].SaturationThroughput, "val_sat_nprime1")
	b.ReportMetric(last[len(last)-1].SaturationThroughput, "val_sat_max_nprime")
}

// BenchmarkFig12b_FixedN_MINAD runs the fixed-N study under MIN AD with
// 64 flits of storage per physical channel split across n' VCs.
func BenchmarkFig12b_FixedN_MINAD(b *testing.B) {
	var last []experiments.ConfigSeries
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig12On(nil, "MIN AD", 256, []float64{0.2, 0.5}, experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.ReportMetric(last[0].SaturationThroughput, "minad_sat_nprime1")
	b.ReportMetric(last[len(last)-1].SaturationThroughput, "minad_sat_max_nprime")
}

// BenchmarkFig13_FixedNCost prices the Table 4 configurations of a 4K
// network (cost rising steeply with n').
func BenchmarkFig13_FixedNCost(b *testing.B) {
	m, p := flatnet.DefaultCostModel(), flatnet.DefaultPackaging()
	var first, last float64
	for i := 0; i < b.N; i++ {
		for _, c := range flatnet.ConfigsForN(4096) {
			bom := flatnet.FlatFlyBOMForConfig(4096, c.K, c.NPrime, p)
			br := flatnet.PriceBOM(bom, m, p)
			if c.NPrime == 1 {
				first = br.TotalPerNode
			}
			last = br.TotalPerNode
		}
	}
	b.ReportMetric(last/first, "cost_ratio_maxnprime_vs_1")
}

// BenchmarkFig14_Variants builds the extra-port variants and measures the
// doubled-channel worst-case throughput gain.
func BenchmarkFig14_Variants(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		base, err := flatnet.NewFlatFly(8, 2)
		if err != nil {
			b.Fatal(err)
		}
		wide, err := flatnet.NewFlatFly(8, 2, flatnet.WithMultiplicity(2))
		if err != nil {
			b.Fatal(err)
		}
		wc := flatnet.NewWorstCase(8, 8)
		a1, _ := flatnet.NewFlatFlyAlgorithm("min", base)
		a2, _ := flatnet.NewFlatFlyAlgorithm("min", wide)
		t1, err := flatnet.SaturationThroughput(base.Graph(), a1, flatnet.DefaultConfig(), wc, 300, 600)
		if err != nil {
			b.Fatal(err)
		}
		t2, err := flatnet.SaturationThroughput(wide.Graph(), a2, flatnet.DefaultConfig(), wc, 300, 600)
		if err != nil {
			b.Fatal(err)
		}
		gain = t2 / t1
	}
	b.ReportMetric(gain, "wc_throughput_gain_x2_channels")
}

// BenchmarkFig15_Power runs the Fig. 15 power sweep and reports the FB's
// savings versus the folded Clos at 4K (paper: ~48%).
func BenchmarkFig15_Power(b *testing.B) {
	m, p := flatnet.DefaultPowerModel(), flatnet.DefaultPackaging()
	var at4k float64
	for i := 0; i < b.N; i++ {
		rows, err := flatnet.PowerSweep(costBenchSizes, m, p)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.N == 4096 {
				at4k = r.SavingsVsClos()
			}
		}
	}
	b.ReportMetric(at4k, "fb_power_savings_vs_clos_4k")
}

// BenchmarkTable4_Configs enumerates the 4K configurations.
func BenchmarkTable4_Configs(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(flatnet.ConfigsForN(4096))
	}
	b.ReportMetric(float64(n), "configs")
}

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

// BenchmarkSimulatorCyclesParallel measures the sharded scheduler's cycle
// rate: the 64-ary 2-flat (4096 terminals) under CLOS AD at 50% uniform
// load, partitioned across 8 workers. The workload is bit-identical to a
// sequential run of the same network — only the wall clock differs — so
// the figure of merit is speedup over the single-worker rate on the same
// topology, with the steady state still allocation-free (the per-shard
// arenas and mailboxes are grown during warmup, then recycled).
func BenchmarkSimulatorCyclesParallel(b *testing.B) {
	ff, err := flatnet.NewFlatFly(64, 2)
	if err != nil {
		b.Fatal(err)
	}
	n, err := flatnet.NewNetwork(ff.Graph(), flatnet.NewClosAD(ff), flatnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	if err := n.SetWorkers(8); err != nil {
		b.Fatal(err)
	}
	injectUniform(b, n)
	// The 4096-terminal network needs a longer warmup than the 1024-node
	// baseline before every slice capacity (request queues, calendar
	// slots, mailboxes) reaches its high-water mark; 2000 cycles leaves
	// residual growth that shows up as ~1 alloc/op.
	for i := 0; i < 12000; i++ {
		cycle(b, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(b, n)
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
// BenchmarkSimulatorCycles workload on a network with no probes or
// tracer attached, exercising every telemetry nil-check in the pipeline.
// Compare against BenchmarkSimulatorCycles from the pre-telemetry seed;
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

// BenchmarkChecksOff is the invariant sanitizer's zero-overhead-when-off
// guard: the exact BenchmarkSimulatorCycles workload with no sanitizer
// attached, exercising every check nil-test in the flit pipeline.
// Compare against BenchmarkSimulatorCycles; the two must stay within
// noise (~2%) of each other.
func BenchmarkChecksOff(b *testing.B) {
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
