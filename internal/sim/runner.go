package sim

import (
	"fmt"
	"io"

	"flatnet/internal/stats"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// RunConfig describes one open-loop measurement: warm the network up at
// the offered load, label the packets injected during a measurement
// window, and run until every labeled packet has left the system (§3.2).
type RunConfig struct {
	// Load is the offered load in flits per node per cycle (fraction of
	// capacity for unit-capacity networks).
	Load float64
	// Source is the full workload driving the run — both arrival and
	// destination process: traffic.NewBernoulli(pattern) for the paper's
	// open-loop Bernoulli injection, traffic.NewOnOff for bursty
	// arrivals. Required.
	Source traffic.Source
	// Warmup, Measure are window lengths in cycles.
	Warmup, Measure int
	// MaxCycles bounds the total simulation; if labeled packets have not
	// drained by then the run reports Saturated. 0 picks a default.
	MaxCycles int
	RunHooks
	// Observe, when non-nil, is called with the run's network after the
	// run completes (drained or saturated), before RunLoadPoint returns
	// — the hook for end-of-run inspection such as channel loads or
	// probe state. It is not called when the run aborts with an error.
	Observe func(n *Network)
	// Checkpoint, when non-nil, receives a snapshot of the warmed
	// network (Network.Snapshot) the moment the measurement window
	// opens — the point where all warm-up work is done but no measured
	// packet exists yet. Resuming a run from that snapshot is
	// bit-identical to running straight through, for any Measure and
	// MaxCycles. Observers installed through Attach do not enter the
	// snapshot: its bytes are those of the unobserved run.
	Checkpoint io.Writer
	// Resume, when non-nil, restores the run's network from a snapshot
	// (written by Checkpoint or Network.Snapshot) instead of building a
	// cold one, then runs the remaining cycles. The snapshot must have
	// been taken on the same topology, algorithm and Config — Restore
	// validates and refuses mismatches. Warmup still defines the
	// measurement window, so resuming a warm checkpoint skips straight
	// to the measurement phase.
	Resume io.Reader
}

// LoadPointResult reports one (topology, algorithm, pattern, load) sample.
type LoadPointResult struct {
	Load float64
	// AvgLatency is the mean cycles from source-queue arrival to delivery
	// over measured packets.
	AvgLatency float64
	// P50Latency and P95Latency are the median and 95th-percentile
	// latencies in cycles.
	P50Latency int
	P95Latency int
	// P99Latency is the 99th-percentile latency in cycles.
	P99Latency int
	// MaxLatency is the largest measured packet latency in cycles.
	MaxLatency int
	// AvgHops is the mean inter-router hop count of measured packets.
	AvgHops float64
	// AcceptedRate is delivered flits per node per cycle over the
	// measurement window: the throughput actually sustained.
	AcceptedRate float64
	// Saturated reports that labeled packets failed to drain within
	// MaxCycles: the network cannot sustain the offered load.
	Saturated bool
	// MeasuredCreated/MeasuredDelivered count labeled packets.
	MeasuredCreated   int64
	MeasuredDelivered int64
	// Cycles is the total simulated cycle count.
	Cycles int64
}

// RunLoadPoint executes the §3.2 methodology on a fresh Network.
func RunLoadPoint(g *topo.Graph, alg Algorithm, cfg Config, rc RunConfig) (LoadPointResult, error) {
	if rc.Load < 0 || rc.Load > 1 {
		return LoadPointResult{}, fmt.Errorf("sim: load %v out of [0,1]", rc.Load)
	}
	if rc.Warmup <= 0 || rc.Measure <= 0 {
		return LoadPointResult{}, fmt.Errorf("sim: warmup and measure windows must be positive")
	}
	if rc.Source == nil {
		return LoadPointResult{}, fmt.Errorf("sim: RunConfig needs a Source")
	}
	maxCycles := rc.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 20 * (rc.Warmup + rc.Measure)
	}
	h, err := openHarness(g, alg, cfg, rc.Resume, rc.RunHooks)
	if err != nil {
		return LoadPointResult{}, err
	}
	defer h.close()
	n := h.n
	if err := n.SetSource(rc.Source); err != nil {
		return LoadPointResult{}, err
	}
	measStart := int64(rc.Warmup)
	measEnd := int64(rc.Warmup + rc.Measure)
	n.SetMeasurementWindow(measStart, measEnd)

	latHist := stats.NewHistogram(16384)
	var hops stats.Accumulator
	deliveredInWindow := int64(0)
	n.AttachHooks(&Hooks{Deliver: func(p *Packet, cycle int64) {
		if cycle >= measStart && cycle < measEnd {
			deliveredInWindow++
		}
		if p.Measured {
			latHist.Add(int(cycle - p.InjectCycle))
			hops.Add(float64(p.Hops))
		}
	}})

	res := LoadPointResult{Load: rc.Load}
	for {
		if err := n.Generate(rc.Load); err != nil {
			return LoadPointResult{}, err
		}
		if err := h.step(); err != nil {
			return LoadPointResult{}, err
		}
		c := n.Cycle()
		if rc.Checkpoint != nil && c == measStart {
			// Warm-up just finished: no measured packet has been created
			// (the cycle-measStart generation happens next iteration), so
			// the snapshot is reusable under any measurement length.
			if err := n.Snapshot(rc.Checkpoint); err != nil {
				return LoadPointResult{}, fmt.Errorf("sim: checkpoint at cycle %d: %w", c, err)
			}
		}
		if c >= measEnd {
			created, delivered := n.MeasuredCounts()
			if delivered >= created {
				break
			}
		}
		if c >= int64(maxCycles) {
			res.Saturated = true
			break
		}
	}
	created, delivered := n.MeasuredCounts()
	res.MeasuredCreated = created
	res.MeasuredDelivered = delivered
	res.AvgLatency = latHist.Mean()
	res.P50Latency = latHist.Percentile(0.50)
	res.P95Latency = latHist.Percentile(0.95)
	res.P99Latency = latHist.Percentile(0.99)
	res.MaxLatency = latHist.Max()
	res.AvgHops = hops.Mean()
	res.AcceptedRate = float64(deliveredInWindow) * float64(n.PacketSize()) /
		(float64(n.NumNodes()) * float64(rc.Measure))
	res.Cycles = n.Cycle()
	if rc.Observe != nil {
		rc.Observe(n)
	}
	return res, nil
}

// LoadSweep runs RunLoadPoint across the given offered loads and returns
// one result per load, in order. Sweeps stop early once two consecutive
// points saturate, since higher loads will as well; the remaining entries
// are returned marked Saturated with zero latency.
func LoadSweep(g *topo.Graph, alg Algorithm, cfg Config, rc RunConfig, loads []float64) ([]LoadPointResult, error) {
	out := make([]LoadPointResult, 0, len(loads))
	saturatedRun := 0
	for _, l := range loads {
		if saturatedRun >= 2 {
			out = append(out, LoadPointResult{Load: l, Saturated: true})
			continue
		}
		p := rc
		p.Load = l
		r, err := RunLoadPoint(g, alg, cfg, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		if r.Saturated {
			saturatedRun++
		} else {
			saturatedRun = 0
		}
	}
	return out, nil
}

// SaturationThroughput measures the accepted rate at full offered load —
// the conventional saturation-throughput figure (e.g. MIN AD sustaining
// ~1/32 of capacity on the worst-case pattern while non-minimal
// algorithms sustain ~50%, Fig. 4(b)).
func SaturationThroughput(g *topo.Graph, alg Algorithm, cfg Config, pattern traffic.Pattern, warmup, measure int) (float64, error) {
	rc := RunConfig{
		Load:      1.0,
		Source:    traffic.NewBernoulli(pattern),
		Warmup:    warmup,
		Measure:   measure,
		MaxCycles: warmup + measure + 1, // no drain needed: we want the rate only
	}
	r, err := RunLoadPoint(g, alg, cfg, rc)
	if err != nil {
		return 0, err
	}
	return r.AcceptedRate, nil
}

// BatchResult reports one batch experiment (Fig. 5): every node injects
// BatchSize packets starting at cycle 0 and the network runs until all are
// delivered.
type BatchResult struct {
	BatchSize int
	// CompletionCycles is the cycle at which the last packet delivered.
	CompletionCycles int64
	// NormalizedLatency is CompletionCycles / BatchSize. As batch size
	// grows this approaches the inverse of the algorithm's sustained
	// throughput; at small batches it exposes transient load imbalance.
	NormalizedLatency float64
}

// BatchConfig describes one Fig. 5 batch experiment. Only Pattern and
// BatchSize are required; the optional hooks mirror RunConfig's.
type BatchConfig struct {
	// Pattern generates destinations.
	Pattern traffic.Pattern
	// BatchSize is the number of packets every node injects at cycle 0.
	BatchSize int
	// MaxCycles bounds the run; 0 picks a default proportional to
	// BatchSize. Exceeding it is an error (the batch never completed).
	MaxCycles int
	RunHooks
}

// RunBatch executes the Fig. 5 batch experiment.
func RunBatch(g *topo.Graph, alg Algorithm, cfg Config, bc BatchConfig) (BatchResult, error) {
	if bc.BatchSize < 1 {
		return BatchResult{}, fmt.Errorf("sim: batch size must be >= 1")
	}
	if bc.Pattern == nil {
		return BatchResult{}, fmt.Errorf("sim: BatchConfig needs a Pattern")
	}
	maxCycles := bc.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1000 * bc.BatchSize
	}
	h, err := openHarness(g, alg, cfg, nil, bc.RunHooks)
	if err != nil {
		return BatchResult{}, err
	}
	defer h.close()
	n := h.n
	if err := n.SetSource(traffic.NewBernoulli(bc.Pattern)); err != nil {
		return BatchResult{}, err
	}
	n.SeedBatch(bc.BatchSize)
	total := int64(bc.BatchSize) * int64(n.NumNodes())
	for {
		if err := h.step(); err != nil {
			return BatchResult{}, err
		}
		_, delivered := n.Totals()
		if delivered >= total {
			break
		}
		if n.Cycle() >= int64(maxCycles) {
			return BatchResult{}, fmt.Errorf("sim: batch of %d did not complete within %d cycles (%s)",
				bc.BatchSize, maxCycles, alg.Name())
		}
	}
	res := BatchResult{
		BatchSize:         bc.BatchSize,
		CompletionCycles:  n.Cycle(),
		NormalizedLatency: float64(n.Cycle()) / float64(bc.BatchSize),
	}
	return res, nil
}
