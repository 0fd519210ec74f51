package main

import (
	"fmt"
	"math"
	"os"

	"flatnet"
	"flatnet/internal/experiments"
	"flatnet/internal/report"
	"flatnet/internal/sweep"
)

// engine is the sweep engine the simulation figures run on for the
// duration of a run() call; nil means the sequential reference path.
var engine *sweep.Engine

func scale(quick bool) experiments.Scale {
	if quick {
		return experiments.Quick()
	}
	return experiments.Full()
}

// writeLoadSeries prints latency-vs-load points for a set of labeled
// series, followed by each series' saturation throughput.
func writeLoadSeries(w *os.File, label string, names []string, pts [][]flatnet.LoadPointResult, sats []float64) {
	fmt.Fprintf(w, "# %s\n", label)
	fmt.Fprint(w, "load")
	for _, n := range names {
		fmt.Fprintf(w, "\tlat_%s", sanitize(n))
	}
	fmt.Fprintln(w)
	if len(pts) > 0 {
		for i := range pts[0] {
			fmt.Fprintf(w, "%.2f", pts[0][i].Load)
			for s := range pts {
				p := pts[s][i]
				if p.Saturated {
					fmt.Fprint(w, "\tsat")
				} else {
					fmt.Fprintf(w, "\t%.2f", p.AvgLatency)
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "# saturation throughput (accepted fraction of capacity at full offered load)")
	for i, n := range names {
		fmt.Fprintf(w, "# %s\t%.3f\n", n, sats[i])
	}
	// Append an ASCII rendering of the latency curves; saturated points
	// render as gaps, and the latency axis is capped to keep the
	// interesting region visible.
	var series []report.Series
	for i, n := range names {
		s := report.Series{Label: n}
		for _, p := range pts[i] {
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

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '-' || r == '(' || r == ')' || r == ',' || r == '=':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// fig4 runs the five routing algorithms on UR or WC traffic.
func fig4(w *os.File, quick bool, pattern string) error {
	s := scale(quick)
	series, err := experiments.Fig4On(engine, pattern, s)
	if err != nil {
		return err
	}
	names := make([]string, len(series))
	pts := make([][]flatnet.LoadPointResult, len(series))
	sats := make([]float64, len(series))
	for i, a := range series {
		names[i], pts[i], sats[i] = a.Algorithm, a.Points, a.SaturationThroughput
	}
	writeLoadSeries(w, fmt.Sprintf("Fig 4 (%s): routing algorithms on the %d-ary %d-flat, latency (cycles) vs offered load", pattern, s.K, s.N), names, pts, sats)
	return nil
}

// fig5 runs the batch dynamic-response experiment.
func fig5(w *os.File, quick bool) error {
	s := scale(quick)
	series, err := experiments.Fig5On(engine, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Fig 5: batch latency normalized to batch size, worst-case traffic, %d-ary %d-flat\n", s.K, s.N)
	fmt.Fprint(w, "batch")
	for _, a := range series {
		fmt.Fprintf(w, "\t%s", sanitize(a.Algorithm))
	}
	fmt.Fprintln(w)
	for i := range series[0].Points {
		fmt.Fprintf(w, "%d", series[0].Points[i].BatchSize)
		for _, a := range series {
			fmt.Fprintf(w, "\t%.2f", a.Points[i].NormalizedLatency)
		}
		fmt.Fprintln(w)
	}
	var chartSeries []report.Series
	for _, a := range series {
		s := report.Series{Label: a.Algorithm}
		for _, p := range a.Points {
			s.X = append(s.X, math.Log2(float64(p.BatchSize)))
			s.Y = append(s.Y, p.NormalizedLatency)
		}
		chartSeries = append(chartSeries, s)
	}
	fmt.Fprintln(w)
	chart := report.Chart{Title: "normalized batch latency vs log2(batch size)", XLabel: "log2(batch)"}
	if err := chart.Render(w, chartSeries); err != nil {
		fmt.Fprintf(w, "# chart error: %v\n", err)
	}
	return nil
}

// fig6 runs the four-topology comparison.
func fig6(w *os.File, quick bool, pattern string) error {
	s := scale(quick)
	series, err := experiments.Fig6On(engine, pattern, s)
	if err != nil {
		return err
	}
	names := make([]string, len(series))
	pts := make([][]flatnet.LoadPointResult, len(series))
	sats := make([]float64, len(series))
	for i, t := range series {
		names[i], pts[i], sats[i] = t.Topology, t.Points, t.SaturationThroughput
	}
	writeLoadSeries(w, fmt.Sprintf("Fig 6 (%s): topology comparison at equal bisection bandwidth, latency vs offered load", pattern), names, pts, sats)
	return nil
}

// fig12 runs the fixed-N configuration study under VAL or MIN AD.
func fig12(w *os.File, quick bool, alg string) error {
	s := scale(quick)
	nodes := 4096
	loads := []float64{0.1, 0.3}
	if alg == "MIN AD" {
		loads = []float64{0.2, 0.4}
	}
	if quick {
		nodes = 256
	}
	series, err := experiments.Fig12On(engine, alg, nodes, loads, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Fig 12 (%s): N=%d flattened butterflies across dimensionality\n", alg, nodes)
	fmt.Fprintln(w, "k\tnprime\tkprime\tsat_throughput\tlat_at_low_load")
	for _, c := range series {
		low := c.Points[0]
		lat := fmt.Sprintf("%.2f", low.AvgLatency)
		if low.Saturated {
			lat = "sat"
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.3f\t%s\n", c.Config.K, c.Config.NPrime, c.Config.KPrime, c.SaturationThroughput, lat)
	}
	return nil
}

// fig14 demonstrates the extra-port variants: expanded scalability and
// doubled local channels.
func fig14(w *os.File, quick bool) error {
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
	warm, meas := 500, 1000
	if quick {
		warm, meas = 200, 400
	}
	wc := flatnet.NewWorstCase(4, 4)
	t1, err := flatnet.SaturationThroughput(base.Graph(), mustAlg(flatnet.NewFlatFlyAlgorithm("min", base)), flatnet.DefaultConfig(), wc, warm, meas)
	if err != nil {
		return err
	}
	t2, err := flatnet.SaturationThroughput(wide.Graph(), mustAlg(flatnet.NewFlatFlyAlgorithm("min", wide)), flatnet.DefaultConfig(), wc, warm, meas)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# WC minimal throughput: baseline %.3f, redundant channels %.3f\n", t1, t2)
	return nil
}

func mustAlg(a flatnet.Algorithm, err error) flatnet.Algorithm {
	if err != nil {
		panic(err)
	}
	return a
}
