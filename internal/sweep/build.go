package sweep

import (
	"bytes"
	"errors"
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

// FromSpec is Spec's inverse: the job of the network and workload, with
// every run field (mode, load, windows, seed, router configuration) zero.
func FromSpec(net spec.Net, wl spec.Workload) Job {
	return Job{
		Net: net.Family, K: net.K, N: net.N,
		Uplinks: net.Uplinks, Leaves: net.Leaves, Middles: net.Middles,
		Q: net.Q, A: net.A, H: net.H, P: net.P,
		ChannelLatency: net.ChannelLatency, Multiplicity: net.Multiplicity,
		Alg: net.Alg, Pattern: wl.Pattern, Conc: wl.Conc,
		Hot: wl.Hot, HotFraction: wl.HotFraction,
		BurstPeak: wl.BurstPeak, BurstLen: wl.BurstLen,
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
	return j.run(stop, false, nil)
}

// sanitizer configures the invariant checks of checked runs.
var sanitizer check.Config

// run is the one job-run path, Run's and the Engine's. checked arms the
// internal/check sanitizer on the job's network, and any violation fails
// the job. ws, when non-nil, gives ModeLoad jobs warm-state reuse: a job
// whose WarmKey has a stored snapshot resumes from it, skipping the whole
// warm-up, and a miss runs cold with a checkpoint writer armed and
// deposits the warmed state. The two compose — a restored network's
// sanitizer starts from the restored state — and neither changes the
// Result (the snapshot round-trip guarantee), which is why both are
// Engine attributes rather than hashed Job fields.
func (j Job) run(stop func() bool, checked bool, ws *WarmStore) (res Result, err error) {
	j = j.Normalize()
	hooks := sim.RunHooks{Stop: stop}
	if checked {
		done := check.Arm(&hooks.Attach, sanitizer)
		defer func() {
			if err == nil {
				if err = done(); err != nil {
					err = fmt.Errorf("sweep: job %s (%s %s %s) failed invariant checks: %w",
						res.Hash[:12], j.Net, j.Alg, j.Mode, err)
				}
			}
		}()
	}
	if ws == nil || j.Mode != ModeLoad || j.Warmup <= 0 {
		return j.simulate(hooks, nil, nil)
	}
	key := j.WarmKey()
	if data, ok := ws.Get(key); ok {
		if res, err = j.simulate(hooks, bytes.NewReader(data), nil); !errors.Is(err, sim.ErrResume) {
			res.WarmStart = err == nil
			return res, err
		}
		// The snapshot was corrupt or written by an incompatible build:
		// discard it and fall through to a cold run that replaces it.
		ws.Drop(key)
	}
	var buf bytes.Buffer
	if res, err = j.simulate(hooks, nil, &buf); err == nil && buf.Len() > 0 {
		// A failed Put only loses future reuse; the result stands.
		res.WarmSaved = ws.Put(key, buf.Bytes()) == nil
	}
	return res, err
}

// simulate runs the normalized job once on a network built cold, or
// restored from resume when that is non-nil; checkpoint, when non-nil,
// receives the warmed network's snapshot as the measurement window
// opens. resume and checkpoint plug into sim.RunConfig and are ignored
// by modes other than ModeLoad and ModeSaturation.
func (j Job) simulate(hooks sim.RunHooks, resume io.Reader, checkpoint io.Writer) (Result, error) {
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
			RunHooks: hooks, Resume: resume, Checkpoint: checkpoint,
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
			RunHooks: hooks,
		})
	case ModeCollective:
		cc := sim.CollectiveConfig{
			Kind: j.Collective, Packets: j.Chunk,
			Warmup: j.Warmup, MaxCycles: int64(j.MaxCycles),
			RunHooks: hooks,
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
