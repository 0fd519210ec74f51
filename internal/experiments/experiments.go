// Package experiments generates the paper's simulation figures (4, 5, 6,
// 12 and 14) at full (paper) or quick (smoke) scale and holds the table
// of claims they are checked against. Each figure runs as a batch of
// independent sweep.Job specs on a sweep.Engine, so it renders the same
// bytes sequentially, in parallel or from a warm result cache.
// cmd/paperfigs writes the figures to results/.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"

	"flatnet"
	"flatnet/internal/report"
	"flatnet/internal/sim"
	"flatnet/internal/spec"
	"flatnet/internal/sweep"
	"flatnet/internal/topo"
)

// Figures maps each simulation figure id to its generator, which renders
// the figure to w at full or quick scale, running its jobs on eng.
var Figures = map[string]func(w io.Writer, eng *sweep.Engine, quick bool) error{
	"4a":  func(w io.Writer, eng *sweep.Engine, q bool) error { return fig4(w, eng, q, "UR") },
	"4b":  func(w io.Writer, eng *sweep.Engine, q bool) error { return fig4(w, eng, q, "WC") },
	"5":   fig5,
	"6a":  func(w io.Writer, eng *sweep.Engine, q bool) error { return fig6(w, eng, q, "UR") },
	"6b":  func(w io.Writer, eng *sweep.Engine, q bool) error { return fig6(w, eng, q, "WC") },
	"12a": func(w io.Writer, eng *sweep.Engine, q bool) error { return fig12(w, eng, q, "VAL") },
	"12b": func(w io.Writer, eng *sweep.Engine, q bool) error { return fig12(w, eng, q, "MIN AD") },
	"14":  fig14,
}

// figScale selects the fidelity of the simulation figures.
type figScale struct {
	// k and n define the k-ary n-flat under test (the paper's §3.2
	// network is the 32-ary 2-flat, N = 1024).
	k, n int
	// warmup, measure and maxCycles parameterize each load point.
	warmup, measure, maxCycles int
	// loads is the offered-load sweep for latency curves.
	loads []float64
	// batches is the batch-size sweep for Fig. 5.
	batches []int
	// fig12Nodes is the network size of the Fig. 12 configuration study.
	fig12Nodes int
	// fig14Warmup and fig14Measure window Fig. 14's saturation runs.
	fig14Warmup, fig14Measure int
}

// scale returns the paper-scale configuration — the 32-ary 2-flat
// (N = 1024, k' = 63) of §3.2 — or, with quick, a 16-ary 2-flat with
// short windows for smoke runs and CI.
func scale(quick bool) figScale {
	if quick {
		return figScale{
			k: 16, n: 2,
			warmup: 400, measure: 400, maxCycles: 4000,
			fig14Warmup: 200, fig14Measure: 400,
			loads:      []float64{0.1, 0.3, 0.5, 0.7, 0.9},
			batches:    []int{2, 8, 32},
			fig12Nodes: 256,
		}
	}
	return figScale{
		k: 32, n: 2,
		warmup: 2000, measure: 2000, maxCycles: 30000,
		fig14Warmup: 500, fig14Measure: 1000,
		loads:      []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98},
		batches:    []int{1, 2, 4, 8, 16, 32, 64, 128, 256},
		fig12Nodes: 4096,
	}
}

// job returns the scale's base flattened-butterfly job.
func (s figScale) job(alg, pattern string) sweep.Job {
	return s.jobOn(spec.Net{Family: "flatfly", K: s.k, N: s.n, Alg: alg}, spec.Workload{Pattern: pattern})
}

// jobOn returns the scale's job of a network and workload: §3.2
// simulator configuration, this scale's windows, seed 1.
func (s figScale) jobOn(net spec.Net, wl spec.Workload) sweep.Job {
	j := sweep.FromSpec(net, wl)
	j.Warmup, j.Measure, j.MaxCycles = s.warmup, s.measure, s.maxCycles
	j.Seed, j.BufPerPort = 1, 32
	return j
}

// flatFlyAlgs lists the paper's five routing algorithms (Fig. 4 order).
var flatFlyAlgs = []string{"MIN AD", "VAL", "UGAL", "UGAL-S", "CLOS AD"}

// runSeries runs one latency-vs-load curve, plus its saturation point, per
// job as one batch on eng.
func runSeries(eng *sweep.Engine, jobs []sweep.Job, loads []float64) ([]sweep.SeriesResult, error) {
	specs := make([]sweep.SeriesSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = sweep.SeriesSpec{Base: j, Loads: loads, Saturation: true}
	}
	return eng.RunSeries(context.Background(), specs)
}

// writeLoadSeries prints latency-vs-load points for a set of labeled
// series, followed by each series' saturation throughput.
func writeLoadSeries(w io.Writer, label string, names []string, res []sweep.SeriesResult) {
	fmt.Fprintf(w, "# %s\n", label)
	fmt.Fprint(w, "load")
	for _, n := range names {
		fmt.Fprintf(w, "\tlat_%s", sanitize(n))
	}
	fmt.Fprintln(w)
	for i := range res[0].Points {
		fmt.Fprintf(w, "%.2f", res[0].Points[i].Load)
		for _, r := range res {
			p := r.Points[i]
			if p.Saturated {
				fmt.Fprint(w, "\tsat")
			} else {
				fmt.Fprintf(w, "\t%.2f", p.AvgLatency)
			}
		}
		fmt.Fprintln(w)
	}
	// After the saturation lines comes an ASCII rendering of the latency
	// curves; saturated points render as gaps, and the latency axis is
	// capped to keep the interesting region visible.
	fmt.Fprintln(w, "# saturation throughput (accepted fraction of capacity at full offered load)")
	var series []report.Series
	for i, n := range names {
		fmt.Fprintf(w, "# %s\t%.3f\n", n, res[i].SaturationThroughput)
		s := report.Series{Label: n}
		for _, p := range res[i].Points {
			y := p.AvgLatency
			if p.Saturated {
				y = math.NaN()
			}
			s.X = append(s.X, p.Load)
			s.Y = append(s.Y, y)
		}
		series = append(series, s)
	}
	fmt.Fprintln(w)
	chart := report.Chart{Title: "latency (cycles, capped at 50) vs offered load", XLabel: "offered load", YCap: 50}
	if err := chart.Render(w, series); err != nil {
		fmt.Fprintf(w, "# chart error: %v\n", err)
	}
}

// sanitize turns a series name into a column-name token.
var sanitize = strings.NewReplacer(" ", "_", "-", "_", "(", "_", ")", "_", ",", "_", "=", "_").Replace

// fig4Jobs are Figure 4's five routing algorithms on the flattened
// butterfly under uniform ("UR") or worst-case ("WC") traffic. Each
// figNJobs lists a figure's jobs in series order; the claims bound them.
func fig4Jobs(s figScale, pattern string) []sweep.Job {
	jobs := make([]sweep.Job, len(flatFlyAlgs))
	for i, alg := range flatFlyAlgs {
		jobs[i] = s.job(alg, pattern)
	}
	return jobs
}

// fig4 renders the five routing algorithms on UR or WC traffic.
func fig4(w io.Writer, eng *sweep.Engine, quick bool, pattern string) error {
	s := scale(quick)
	res, err := runSeries(eng, fig4Jobs(s, pattern), s.loads)
	if err != nil {
		return err
	}
	writeLoadSeries(w, fmt.Sprintf("Fig 4 (%s): routing algorithms on the %d-ary %d-flat, latency (cycles) vs offered load", pattern, s.k, s.n), flatFlyAlgs, res)
	return nil
}

// fig5 reproduces Figure 5: batch completion latency normalized to batch
// size, on the worst-case pattern, for the four load-balancing algorithms.
func fig5(w io.Writer, eng *sweep.Engine, quick bool) error {
	s := scale(quick)
	algs := flatFlyAlgs[1:] // all but MIN AD
	var jobs []sweep.Job
	for _, alg := range algs {
		for _, b := range s.batches {
			j := s.job(alg, "WC")
			j.Mode = sweep.ModeBatch
			j.BatchSize = b
			j.MaxCycles = 0 // RunBatch's own default bound
			jobs = append(jobs, j)
		}
	}
	res, err := eng.Run(context.Background(), jobs)
	if err != nil {
		return err
	}
	at := func(alg, batch int) sim.BatchResult { return res[alg*len(s.batches)+batch].Batch }
	fmt.Fprintf(w, "# Fig 5: batch latency normalized to batch size, worst-case traffic, %d-ary %d-flat\n", s.k, s.n)
	fmt.Fprint(w, "batch")
	for _, alg := range algs {
		fmt.Fprintf(w, "\t%s", sanitize(alg))
	}
	fmt.Fprintln(w)
	for b := range s.batches {
		fmt.Fprintf(w, "%d", at(0, b).BatchSize)
		for a := range algs {
			fmt.Fprintf(w, "\t%.2f", at(a, b).NormalizedLatency)
		}
		fmt.Fprintln(w)
	}
	var chartSeries []report.Series
	for a, alg := range algs {
		cs := report.Series{Label: alg}
		for b := range s.batches {
			p := at(a, b)
			cs.X = append(cs.X, math.Log2(float64(p.BatchSize)))
			cs.Y = append(cs.Y, p.NormalizedLatency)
		}
		chartSeries = append(chartSeries, cs)
	}
	fmt.Fprintln(w)
	chart := report.Chart{Title: "normalized batch latency vs log2(batch size)", XLabel: "log2(batch)"}
	if err := chart.Render(w, chartSeries); err != nil {
		fmt.Fprintf(w, "# chart error: %v\n", err)
	}
	return nil
}

// fig6Jobs are Figure 6's networks: flattened butterfly (CLOS AD),
// conventional butterfly (destination), folded Clos (adaptive
// sequential, 2:1 taper for equal bisection) and hypercube (e-cube)
// under uniform or worst-case traffic, with bisection bandwidth held
// constant (Table 1).
func fig6Jobs(s figScale, pattern string) []sweep.Job {
	// The folded Clos in the §3.3 convention: 2:1 tapered, so its
	// bisection equals the flattened butterfly's (valid at both scales).
	clos, _ := spec.TaperedClos(s.k, s.n, 2)
	clos.Alg = "adaptive sequential"
	// Every topology sees the worst-case pattern at the flattened
	// butterfly's concentration so the comparison is like-for-like.
	wl := spec.Workload{Pattern: pattern, Conc: s.k}
	return []sweep.Job{
		s.jobOn(spec.Net{Family: "flatfly", K: s.k, N: s.n, Alg: "CLOS AD"}, wl),
		s.jobOn(spec.Net{Family: "butterfly", K: s.k, N: s.n, Alg: "destination"}, wl),
		s.jobOn(clos, wl),
		s.jobOn(spec.Net{Family: "hypercube", N: bits.Len(uint(math.Pow(float64(s.k), float64(s.n))) - 1), Alg: "e-cube"}, wl),
	}
}

// fig6 reproduces Figure 6 from fig6Jobs.
func fig6(w io.Writer, eng *sweep.Engine, quick bool, pattern string) error {
	s := scale(quick)
	jobs := fig6Jobs(s, pattern)
	res, err := runSeries(eng, jobs, s.loads)
	if err != nil {
		return err
	}
	// The display name comes from the job's own topology so the figure
	// labels match the rest of the repo.
	names := make([]string, len(jobs))
	for i, j := range jobs {
		net, _ := j.Spec()
		t, err := net.Topology()
		if err != nil {
			return err
		}
		names[i] = t.Name()
	}
	writeLoadSeries(w, fmt.Sprintf("Fig 6 (%s): topology comparison at equal bisection bandwidth, latency vs offered load", pattern), names, res)
	return nil
}

// fig12 reproduces Figure 12: the Table 4 configurations of a fixed-size
// network simulated under VAL (a) or MIN AD (b). For MIN AD the paper
// holds the total storage per physical channel at 64 flits, split over
// the n' virtual channels, so throughput degrades as n' grows. That
// effect only binds when the credit round trip exceeds the aggregate
// per-VC buffering a channel's active VCs provide, so the MIN AD study
// uses 16-cycle channels (modeling the global cables and pipelined SerDes
// of the paper's router, where 64 flits per physical channel was a
// meaningful budget); VAL uses the default 1-cycle channels.
func fig12(w io.Writer, eng *sweep.Engine, quick bool, alg string) error {
	s := scale(quick)
	loads := map[string][]float64{"VAL": {0.1, 0.3}, "MIN AD": {0.2, 0.4}}[alg]
	res, err := runSeries(eng, fig12Jobs(s, alg), loads)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Fig 12 (%s): N=%d flattened butterflies across dimensionality\n", alg, s.fig12Nodes)
	fmt.Fprintln(w, "k\tnprime\tkprime\tsat_throughput\tlat_at_low_load")
	for i, c := range topo.ConfigsForN(s.fig12Nodes) {
		low := res[i].Points[0]
		lat := fmt.Sprintf("%.2f", low.AvgLatency)
		if low.Saturated {
			lat = "sat"
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.3f\t%s\n", c.K, c.NPrime, c.KPrime, res[i].SaturationThroughput, lat)
	}
	return nil
}

// fig12Jobs are Figure 12's configurations, one job each.
func fig12Jobs(s figScale, alg string) []sweep.Job {
	cfgs := topo.ConfigsForN(s.fig12Nodes)
	jobs := make([]sweep.Job, len(cfgs))
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
		j.MaxCycles = 4 * (s.warmup + s.measure)
		jobs[i] = j
	}
	return jobs
}

// fig14 demonstrates the extra-port variants: expanded scalability and
// doubled local channels.
func fig14(w io.Writer, eng *sweep.Engine, quick bool) error {
	fmt.Fprintln(w, "# Fig 14: extra-port organizations of a 4-ary 2-flat on radix-8 routers")
	base, err := flatnet.NewFlatFly(4, 2)
	if err != nil {
		return err
	}
	wide, err := flatnet.NewFlatFly(4, 2, flatnet.WithMultiplicity(2))
	if err != nil {
		return err
	}
	expanded, err := flatnet.NewOneDimFB(5, 4)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "variant\tnodes\tradix_used\tchannels")
	fmt.Fprintf(w, "baseline 4-ary 2-flat\t%d\t%d\t%d\n", base.NumNodes, base.Radix, base.Graph().CountChannels())
	fmt.Fprintf(w, "(a) redundant channels\t%d\t%d\t%d\n", wide.NumNodes, base.Radix+4, wide.Graph().CountChannels())
	fmt.Fprintf(w, "(b) expanded scalability\t%d\t%d\t%d\n", expanded.NumNodes, expanded.Radix, expanded.Graph().CountChannels())

	// Measured effect of (a): doubled channels double worst-case minimal
	// throughput.
	res, err := eng.Run(context.Background(), fig14Jobs(scale(quick), ""))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# WC minimal throughput: baseline %.3f, redundant channels %.3f\n", res[0].Point.AcceptedRate, res[1].Point.AcceptedRate)
	return nil
}

// fig14Jobs are Fig. 14(a)'s worst-case saturation runs, with no
// variants: MIN on the 4-ary 2-flat, baseline and with every channel
// doubled.
func fig14Jobs(s figScale, _ string) []sweep.Job {
	base := sweep.Job{Net: "flatfly", K: 4, N: 2, Alg: "min", Pattern: "WC",
		Mode: sweep.ModeSaturation, Warmup: s.fig14Warmup, Measure: s.fig14Measure, Seed: 1}
	wide := base
	wide.Multiplicity = 2
	return []sweep.Job{base, wide}
}
