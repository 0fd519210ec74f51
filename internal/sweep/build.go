package sweep

import (
	"fmt"
	"io"

	"flatnet/internal/analysis"
	"flatnet/internal/check"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/spec"
)

// Spec converts the job's flat fields to the shared network and workload
// descriptions. It copies and does not default: run it on a normalized
// job to build exactly what the hash describes.
func (j Job) Spec() (spec.Net, spec.Workload) {
	return spec.Net{
			Family: j.Net, K: j.K, N: j.N,
			Uplinks: j.Uplinks, Leaves: j.Leaves, Middles: j.Middles,
			Q: j.Q, A: j.A, H: j.H, P: j.P,
			ChannelLatency: j.ChannelLatency, Multiplicity: j.Multiplicity,
			Alg: j.Alg,
		}, spec.Workload{
			Pattern: j.Pattern, Conc: j.Conc,
			Hot: j.Hot, HotFraction: j.HotFraction,
			BurstPeak: j.BurstPeak, BurstLen: j.BurstLen,
		}
}

// simConfig is the router configuration the job's fields select.
func (j Job) simConfig() sim.Config {
	return sim.Config{
		Seed:        j.Seed,
		BufPerPort:  j.BufPerPort,
		PacketSize:  j.PacketSize,
		Speedup:     j.Speedup,
		AgeArbiter:  j.AgeArbiter,
		RouterDelay: j.RouterDelay,
	}
}

// runAnalytic fills the result for ModeAnalytic: graph-analytic metrics
// from internal/analysis plus the zero-load latency model standing in
// for the load-point sample, so analytic sweeps emit the same Result
// shape as simulated ones. Only the topology is built, so analytic jobs
// may leave Alg and Pattern empty.
func (j Job) runAnalytic(res *Result) error {
	net, _ := j.Spec()
	t, err := net.Topology()
	if err != nil {
		return err
	}
	m, err := analysis.AnalyzeTopology(t)
	if err != nil {
		return err
	}
	zl, err := routing.ZeroLoadFor(t.Graph(), j.simConfig(), m.AvgHops)
	if err != nil {
		return err
	}
	res.Analytic = &m
	res.Point.AvgHops = m.AvgHops
	res.Point.AvgLatency = zl.Latency()
	return nil
}

// Run executes the job and returns its result. stop, when non-nil, is
// polled by the simulator; returning true aborts the run with
// sim.ErrStopped. Run is safe to call from concurrent goroutines: every
// invocation builds a private network and RNG from the job's seed, which
// is what makes parallel sweeps bit-identical to sequential ones.
func (j Job) Run(stop func() bool) (Result, error) {
	return j.run(stop, nil, nil, nil)
}

// runIO is Run with the snapshot plumbing exposed: resume, when
// non-nil, restores the job's network from a warmed snapshot instead of
// building cold; checkpoint, when non-nil, receives a snapshot of the
// warmed network the moment the measurement window opens. ModeLoad
// only; see WarmStore for the reuse policy built on top.
func (j Job) runIO(stop func() bool, resume io.Reader, checkpoint io.Writer) (Result, error) {
	return j.run(stop, nil, resume, checkpoint)
}

// RunChecked is Run with the internal/check runtime sanitizer attached
// to the job's network: every flit-conservation, credit, virtual-channel
// and progress invariant is asserted throughout the run, and any
// violation fails the job. The sanitizer observes without perturbing, so
// a checked job's Result is bit-identical to an unchecked one — which is
// why Check is an Engine attribute rather than a hashed Job field.
func (j Job) RunChecked(stop func() bool) (Result, error) {
	var attach func(*sim.Network)
	done := check.Arm(&attach, check.Config{})
	res, err := j.run(stop, attach, nil, nil)
	if err != nil {
		return res, err
	}
	if err := done(); err != nil {
		return res, fmt.Errorf("sweep: job %s (%s %s %s) failed invariant checks: %w",
			res.Hash[:12], j.Net, j.Alg, j.Mode, err)
	}
	return res, nil
}

// run is the shared body of Run, RunChecked and runIO: attach, when
// non-nil, receives the job's freshly built network before the first
// cycle; resume and checkpoint plug into the ModeLoad snapshot plumbing
// (sim.RunConfig.Resume/Checkpoint) and are ignored by other modes.
func (j Job) run(stop func() bool, attach func(*sim.Network), resume io.Reader, checkpoint io.Writer) (Result, error) {
	j = j.Normalize()
	res := Result{Job: j, Hash: j.Hash()}
	if j.Mode == ModeAnalytic {
		if err := j.runAnalytic(&res); err != nil {
			return res, fmt.Errorf("sweep: job %s (%s %s): %w", j.Hash()[:12], j.Net, j.Mode, err)
		}
		return res, nil
	}
	net, wl := j.Spec()
	t, alg, conc, err := net.Build()
	if err != nil {
		return res, err
	}
	g, cfg := t.Graph(), j.simConfig()
	pat, src, err := wl.Build(g.NumNodes, conc, j.Seed)
	if err != nil {
		return res, err
	}
	switch j.Mode {
	case ModeLoad, ModeSaturation:
		rc := sim.RunConfig{
			Load: j.Load, Source: src,
			Warmup: j.Warmup, Measure: j.Measure, MaxCycles: j.MaxCycles,
			Stop: stop, Attach: attach,
			Resume: resume, Checkpoint: checkpoint,
		}
		if j.Mode == ModeSaturation {
			// Full offered load, no drain: the accepted rate over the
			// measurement window is the figure of merit.
			rc.Load, rc.MaxCycles = 1.0, j.Warmup+j.Measure+1
		}
		res.Point, err = sim.RunLoadPoint(g, alg, cfg, rc)
	case ModeBatch:
		res.Batch, err = sim.RunBatch(g, alg, cfg, sim.BatchConfig{
			Pattern: pat, BatchSize: j.BatchSize, MaxCycles: j.MaxCycles,
			Stop: stop, Attach: attach,
		})
	case ModeCollective:
		cc := sim.CollectiveConfig{
			Kind: j.Collective, Packets: j.Chunk,
			Warmup: j.Warmup, MaxCycles: int64(j.MaxCycles),
			Stop: stop, Attach: attach,
		}
		if j.Load > 0 {
			cc.Load, cc.Source = j.Load, src
		}
		var cr sim.CollectiveResult
		cr, err = sim.RunCollective(g, alg, cfg, cc)
		if err == nil {
			res.Collective = &cr
		}
	default:
		err = fmt.Errorf("sweep: unknown mode %q", j.Mode)
	}
	if err != nil {
		return res, fmt.Errorf("sweep: job %s (%s %s %s load %.2f): %w", j.Hash()[:12], j.Net, j.Alg, j.Mode, j.Load, err)
	}
	return res, nil
}
