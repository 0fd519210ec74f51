package flatnet

import "fmt"

// Option configures one flatnet.Run measurement. Options are applied in
// order; later options override earlier ones.
type Option func(*runOptions)

type runOptions struct {
	cfg     Config
	rc      RunConfig
	loadSet bool
	check   *CheckConfig
}

// attach chains f onto the run's Attach hook, after what is installed.
func (o *runOptions) attach(f func(n *Network)) {
	prev := o.rc.Attach
	o.rc.Attach = func(n *Network) { prev(n); f(n) }
}

// WithLoad sets the offered load in flits per node per cycle (fraction
// of capacity for unit-capacity networks). Default 0.5.
func WithLoad(load float64) Option {
	return func(o *runOptions) { o.rc.Load = load; o.loadSet = true }
}

// WithPattern sets the traffic pattern, injected under the default
// Bernoulli arrival process: shorthand for
// WithSource(NewBernoulliSource(p)). Default: uniform random over the
// topology's terminals.
func WithPattern(p Pattern) Option {
	return func(o *runOptions) { o.rc.Source = NewBernoulliSource(p) }
}

// WithSource installs a full workload source — arrival process and
// destination process together (NewOnOffSource, BuildWorkload, or any
// Source implementation).
func WithSource(src Source) Option {
	return func(o *runOptions) { o.rc.Source = src }
}

// WithWarmup sets the warm-up window in cycles. Default 1000.
func WithWarmup(cycles int) Option {
	return func(o *runOptions) { o.rc.Warmup = cycles }
}

// WithMeasure sets the measurement window in cycles. Default 1000.
func WithMeasure(cycles int) Option {
	return func(o *runOptions) { o.rc.Measure = cycles }
}

// WithMaxCycles bounds the total simulation; a run whose labeled packets
// have not drained by then reports Saturated. Default: the RunLoadPoint
// default of 20x the warm-up plus measurement windows.
func WithMaxCycles(cycles int) Option {
	return func(o *runOptions) { o.rc.MaxCycles = cycles }
}

// WithConfig replaces the router microarchitecture configuration
// (buffering, switch speedup, packet size, seed). Default:
// DefaultConfig, the paper's §3.2 router.
func WithConfig(cfg Config) Option {
	return func(o *runOptions) { o.cfg = cfg }
}

// WithSeed sets the seed driving every random stream of the run,
// keeping the rest of the configuration.
func WithSeed(seed uint64) Option {
	return func(o *runOptions) { o.cfg.Seed = seed }
}

// WithStop installs a cancellation hook, polled every few hundred
// cycles; returning true aborts the run with an error wrapping
// ErrStopped.
func WithStop(stop func() bool) Option {
	return func(o *runOptions) { o.rc.Stop = stop }
}

// WithCheck runs the whole simulation under the runtime invariant
// sanitizer (flit conservation, credit round trips, virtual-channel
// ownership, wholeness, progress). Any violation surfaces as an error
// from Run. Checking observes without perturbing: the measured results
// are bit-identical to an unchecked run.
func WithCheck(cfg CheckConfig) Option {
	return func(o *runOptions) { c := cfg; o.check = &c }
}

// WithTelemetry attaches router-pipeline probes (per-VC occupancy,
// credit-stall and allocator counters, windowed per-channel loads) to
// the run's network; read them back via WithObserve and Network.Probes.
func WithTelemetry(cfg ProbeConfig) Option {
	return func(o *runOptions) { o.attach(func(n *Network) { n.AttachProbes(cfg) }) }
}

// WithTracer streams every flit pipeline event of the run into tr.
func WithTracer(tr *Tracer) Option {
	return func(o *runOptions) { o.attach(func(n *Network) { n.AttachTracer(tr) }) }
}

// WithObserve installs an end-of-run inspection hook, called with the
// run's network after it completes (drained or saturated).
func WithObserve(f func(n *Network)) Option {
	return func(o *runOptions) { o.rc.Observe = f }
}

// Run measures one load point on a topology with a routing algorithm,
// using the paper's §3.2 warm-up/measure/drain methodology. With no
// options it simulates 50% uniform-random load on the default router
// configuration for 1000 warm-up and 1000 measured cycles:
//
//	ff, _ := flatnet.NewFlatFly(32, 2)
//	res, err := flatnet.Run(ff, flatnet.NewClosAD(ff),
//	    flatnet.WithLoad(0.8),
//	    flatnet.WithPattern(flatnet.NewWorstCase(ff.K, ff.NumRouters)),
//	    flatnet.WithCheck(flatnet.CheckConfig{}))
//
// Run is a convenience front end over RunLoadPoint; sweeps and batch
// experiments use LoadSweep and RunBatch directly.
func Run(t Topology, alg Algorithm, opts ...Option) (LoadPointResult, error) {
	if t == nil {
		return LoadPointResult{}, fmt.Errorf("flatnet: nil topology")
	}
	if alg == nil {
		return LoadPointResult{}, fmt.Errorf("flatnet: nil algorithm")
	}
	g := t.Graph()
	o := runOptions{cfg: DefaultConfig()}
	o.rc.Load = 0.5
	o.rc.Warmup = 1000
	o.rc.Measure = 1000
	o.rc.Attach = func(*Network) {}
	for _, opt := range opts {
		opt(&o)
	}
	if o.rc.Source == nil {
		o.rc.Source = NewBernoulliSource(NewUniform(g.NumNodes))
	}
	checked := func() error { return nil }
	if o.check != nil {
		checked = ArmCheck(&o.rc.Attach, *o.check)
	}
	res, err := RunLoadPoint(g, alg, o.cfg, o.rc)
	if err != nil {
		return res, err
	}
	if cerr := checked(); cerr != nil {
		return res, fmt.Errorf("flatnet: run completed but the sanitizer found violations: %w", cerr)
	}
	return res, nil
}
