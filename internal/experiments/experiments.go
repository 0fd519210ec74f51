// Package experiments defines the paper's evaluation experiments — one
// entry per table and figure — at full (paper-scale) or quick (smoke)
// scale. Each simulation experiment is expressed as a list of
// independent sweep.Job specs executed by a sweep.Engine, so figures can
// run sequentially, in parallel, or against a warm result cache without
// changing their output. cmd/paperfigs renders their results to files;
// the repository benchmarks execute them under testing.B; tests assert
// their headline shapes.
package experiments

import (
	"context"
	"fmt"

	"flatnet/internal/sim"
	"flatnet/internal/spec"
	"flatnet/internal/sweep"
	"flatnet/internal/topo"
)

// Scale selects the fidelity of the simulation experiments.
type Scale struct {
	// K and N define the k-ary n-flat under test (the paper's §3.2
	// network is the 32-ary 2-flat, N = 1024).
	K, N int
	// Warmup, Measure and MaxCycles parameterize each load point.
	Warmup, Measure, MaxCycles int
	// Loads is the offered-load sweep for latency curves.
	Loads []float64
	// Batches is the batch-size sweep for Fig. 5.
	Batches []int
	// Seed drives all randomness.
	Seed uint64
}

// Full returns the paper-scale configuration: the 32-ary 2-flat
// (N = 1024, k' = 63) of §3.2.
func Full() Scale {
	return Scale{
		K: 32, N: 2,
		Warmup: 2000, Measure: 2000, MaxCycles: 30000,
		Loads:   []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98},
		Batches: []int{1, 2, 4, 8, 16, 32, 64, 128, 256},
		Seed:    1,
	}
}

// Quick returns a reduced-scale configuration (16-ary 2-flat, short
// windows) for smoke runs and CI.
func Quick() Scale {
	return Scale{
		K: 16, N: 2,
		Warmup: 400, Measure: 400, MaxCycles: 4000,
		Loads:   []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Batches: []int{2, 8, 32},
		Seed:    1,
	}
}

func (s Scale) flatFly() (*topo.FlatFly, error) { return topo.NewFlatFly(s.K, s.N) }

// job returns the Scale's base flattened-butterfly job: §3.2 simulator
// configuration, this scale's windows and seed.
func (s Scale) job(alg, pattern string) sweep.Job {
	return sweep.Job{
		Net: "flatfly", K: s.K, N: s.N,
		Alg: alg, Pattern: pattern,
		Warmup: s.Warmup, Measure: s.Measure, MaxCycles: s.MaxCycles,
		Seed: s.Seed, BufPerPort: 32,
	}
}

// seqEngine returns the engine figures run on when the caller does not
// supply one: a single worker, no cache — the sequential reference path.
func seqEngine(eng *sweep.Engine) *sweep.Engine {
	if eng != nil {
		return eng
	}
	return &sweep.Engine{Workers: 1}
}

// flatFlyAlgs lists the paper's five routing algorithms (Fig. 4 order).
var flatFlyAlgs = []string{"MIN AD", "VAL", "UGAL", "UGAL-S", "CLOS AD"}

// AlgSeries is one routing algorithm's latency-versus-load curve.
type AlgSeries struct {
	Algorithm string
	Points    []sim.LoadPointResult
	// SaturationThroughput is the accepted rate at full offered load.
	SaturationThroughput float64
}

// Fig4On reproduces Figure 4 — the five routing algorithms on the
// flattened butterfly under uniform ("UR") or worst-case ("WC") traffic —
// on the given engine (nil = sequential).
func Fig4On(eng *sweep.Engine, patternName string, s Scale) ([]AlgSeries, error) {
	if err := checkPattern(patternName); err != nil {
		return nil, err
	}
	specs := make([]sweep.SeriesSpec, len(flatFlyAlgs))
	for i, alg := range flatFlyAlgs {
		specs[i] = sweep.SeriesSpec{Base: s.job(alg, patternName), Loads: s.Loads, Saturation: true}
	}
	res, err := seqEngine(eng).RunSeries(context.Background(), specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig4: %w", err)
	}
	out := make([]AlgSeries, len(flatFlyAlgs))
	for i, alg := range flatFlyAlgs {
		out[i] = AlgSeries{Algorithm: alg, Points: res[i].Points, SaturationThroughput: res[i].SaturationThroughput}
	}
	return out, nil
}

// checkPattern validates the pattern names the figures accept, so a typo
// fails before any jobs are scheduled.
func checkPattern(name string) error {
	switch name {
	case "uniform", "UR", "worstcase", "WC":
		return nil
	default:
		return fmt.Errorf("experiments: unknown pattern %q", name)
	}
}

// BatchSeries is one algorithm's Fig. 5 dynamic-response curve.
type BatchSeries struct {
	Algorithm string
	Points    []sim.BatchResult
}

// Fig5On reproduces Figure 5: batch completion latency normalized to
// batch size, on the worst-case pattern, for the four load-balancing
// algorithms.
func Fig5On(eng *sweep.Engine, s Scale) ([]BatchSeries, error) {
	algs := flatFlyAlgs[1:] // all but MIN AD
	var jobs []sweep.Job
	for _, alg := range algs {
		for _, b := range s.Batches {
			j := s.job(alg, "WC")
			j.Mode = sweep.ModeBatch
			j.BatchSize = b
			j.MaxCycles = 0 // RunBatch's own default bound
			jobs = append(jobs, j)
		}
	}
	results, err := seqEngine(eng).Run(context.Background(), jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}
	out := make([]BatchSeries, len(algs))
	for i, alg := range algs {
		bs := BatchSeries{Algorithm: alg}
		for bi := range s.Batches {
			bs.Points = append(bs.Points, results[i*len(s.Batches)+bi].Batch)
		}
		out[i] = bs
	}
	return out, nil
}

// TopoSeries is one topology's Fig. 6 curve.
type TopoSeries struct {
	Topology             string
	Algorithm            string
	Points               []sim.LoadPointResult
	SaturationThroughput float64
}

// Fig6On reproduces Figure 6: flattened butterfly (CLOS AD), conventional
// butterfly (destination), folded Clos (adaptive sequential, 2:1 taper for
// equal bisection) and hypercube (e-cube) under uniform or worst-case
// traffic, with bisection bandwidth held constant (Table 1).
func Fig6On(eng *sweep.Engine, patternName string, s Scale) ([]TopoSeries, error) {
	if err := checkPattern(patternName); err != nil {
		return nil, err
	}
	f, err := s.flatFly()
	if err != nil {
		return nil, err
	}
	n := f.NumNodes
	dims := 0
	for c := 1; c < n; c <<= 1 {
		dims++
	}
	// The folded Clos in the §3.3 convention: 2:1 tapered, so its
	// bisection equals the flattened butterfly's.
	clos, err := spec.TaperedClos(s.K, s.N, 2)
	if err != nil {
		return nil, err
	}
	// Every topology sees the worst-case pattern at the flattened
	// butterfly's concentration so the comparison is like-for-like.
	flat := s.job("CLOS AD", patternName)
	flat.Conc = f.K
	fly, fc, cube := flat, flat, flat
	fly.Net, fly.Alg = "butterfly", "destination"
	fc.Net, fc.Alg = clos.Family, "adaptive sequential"
	fc.K, fc.N = clos.K, 0
	fc.Uplinks, fc.Leaves, fc.Middles = clos.Uplinks, clos.Leaves, clos.Middles
	cube.Net, cube.Alg = "hypercube", "e-cube"
	cube.K, cube.N = 0, dims
	jobs := []sweep.Job{flat, fly, fc, cube}
	specs := make([]sweep.SeriesSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = sweep.SeriesSpec{Base: j, Loads: s.Loads, Saturation: true}
	}
	res, err := seqEngine(eng).RunSeries(context.Background(), specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig6: %w", err)
	}
	out := make([]TopoSeries, len(jobs))
	for i, j := range jobs {
		// The display name comes from the job's own topology so the
		// figure labels match the rest of the repo.
		net, _ := j.Spec()
		t, err := net.Topology()
		if err != nil {
			return nil, err
		}
		out[i] = TopoSeries{
			Topology:             t.Name(),
			Algorithm:            j.Alg,
			Points:               res[i].Points,
			SaturationThroughput: res[i].SaturationThroughput,
		}
	}
	return out, nil
}

// ConfigSeries is one (k, n') configuration's Fig. 12 result.
type ConfigSeries struct {
	Config               topo.FlatFlyConfig
	Points               []sim.LoadPointResult
	SaturationThroughput float64
}

// Fig12On reproduces Figure 12: the Table 4 configurations of a fixed-size
// network simulated under VAL (a) or MIN AD (b). For MIN AD the paper
// holds the total storage per physical channel at 64 flits, split over
// the n' virtual channels, so throughput degrades as n' grows. That
// effect only binds when the credit round trip exceeds the aggregate
// per-VC buffering a channel's active VCs provide, so the MIN AD study
// uses 16-cycle channels (modeling the global cables and pipelined SerDes
// of the paper's router, where 64 flits per physical channel was a
// meaningful budget); VAL uses the default 1-cycle channels. nodes
// selects the network size (the paper uses 4096).
func Fig12On(eng *sweep.Engine, alg string, nodes int, loads []float64, s Scale) ([]ConfigSeries, error) {
	if alg != "VAL" && alg != "MIN AD" {
		return nil, fmt.Errorf("experiments: fig12 supports VAL and MIN AD, not %q", alg)
	}
	cfgs := topo.ConfigsForN(nodes)
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("experiments: no flattened-butterfly configurations for N=%d", nodes)
	}
	specs := make([]sweep.SeriesSpec, len(cfgs))
	for i, c := range cfgs {
		j := s.job(alg, "UR")
		j.K, j.N = c.K, c.N
		if alg == "MIN AD" {
			j.ChannelLatency = 16
			j.BufPerPort = 64 // §5.1.1: 64 flits per PC split across n' VCs
		}
		// The high-dimensionality configurations are large (up to N/2
		// routers) and some load points sit beyond saturation; bound the
		// drain so the sweep completes in reasonable time.
		j.MaxCycles = 4 * (s.Warmup + s.Measure)
		specs[i] = sweep.SeriesSpec{Base: j, Loads: loads, Saturation: true}
	}
	res, err := seqEngine(eng).RunSeries(context.Background(), specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig12: %w", err)
	}
	out := make([]ConfigSeries, len(cfgs))
	for i, c := range cfgs {
		out[i] = ConfigSeries{Config: c, Points: res[i].Points, SaturationThroughput: res[i].SaturationThroughput}
	}
	return out, nil
}
