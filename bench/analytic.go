package main

import (
	"fmt"
	"runtime"
	"time"

	"flatnet"
)

// analyticPoint is one design point: a constructor, the expected diameter
// in router hops, and whether it is analysed through the orbit-less path.
type analyticPoint struct {
	name     string
	family   string
	diameter int
	generic  bool
	build    func() (flatnet.Topology, error)
}

func slimfly(q int) func() (flatnet.Topology, error) {
	return func() (flatnet.Topology, error) { return flatnet.NewSlimFly(q, 0) }
}

func dragonfly(h int) func() (flatnet.Topology, error) {
	return func() (flatnet.Topology, error) { return flatnet.NewDragonfly(0, 0, h) }
}

func flatfly(k, n int) func() (flatnet.Topology, error) {
	return func() (flatnet.Topology, error) { return flatnet.NewFlatFly(k, n) }
}

// analyticPoints is the fixed point list. Slim Fly q=43 is the
// 122k-endpoint instance; the last point sends a Slim Fly graph through
// AnalyzeGraph's parallel all-sources sweep instead of the orbit shortcut.
var analyticPoints = []analyticPoint{
	{"slimfly q=29", "slimfly", 2, false, slimfly(29)},
	{"slimfly q=37", "slimfly", 2, false, slimfly(37)},
	{"slimfly q=43", "slimfly", 2, false, slimfly(43)},
	{"dragonfly h=6", "dragonfly", 3, false, dragonfly(6)},
	{"dragonfly h=8", "dragonfly", 3, false, dragonfly(8)},
	{"flatfly 32-ary 3-flat", "flatfly", 2, false, flatfly(32, 3)},
	{"flatfly 64-ary 2-flat", "flatfly", 1, false, flatfly(64, 2)},
	{"flatfly 16-ary 4-flat", "flatfly", 3, false, flatfly(16, 4)},
	{"foldedclos 4096 radix 32", "foldedclos", 2, false,
		func() (flatnet.Topology, error) { return flatnet.TaperedClosForNodes(4096, 32) }},
	{"slimfly q=19 generic", "slimfly", 2, true, slimfly(19)},
}

// analyticRound is one pass over the points.
type analyticRound struct {
	pointMS []float64                 // host ms of each point, indexed like analyticPoints
	metrics []flatnet.AnalyticMetrics // likewise
	buildMS map[string]float64        // per family
	analyMS map[string]float64
	bfsMS   float64
	endpts  float64
}

func runAnalyticRound(e *runEnv, o *outcome, parent int) analyticRound {
	r := analyticRound{
		pointMS: make([]float64, len(analyticPoints)),
		metrics: make([]flatnet.AnalyticMetrics, len(analyticPoints)),
		buildMS: map[string]float64{}, analyMS: map[string]float64{},
	}
	for pi, p := range analyticPoints {
		o.attempted++
		// Each point starts from a collected heap, or the largest point's
		// garbage would be charged to whichever point comes after it.
		runtime.GC()
		var t flatnet.Topology
		var m flatnet.AnalyticMetrics
		var err error
		t0 := time.Now()
		build := e.tr.timed(parent, fmt.Sprintf("point[%d].build", pi), func() {
			if t, err = p.build(); err == nil {
				t.Graph()
			}
		})
		if err != nil {
			o.fail("%s: %v", p.name, err)
			continue
		}
		analyze := e.tr.timed(parent, fmt.Sprintf("point[%d].analyze", pi), func() {
			if p.generic {
				m, err = flatnet.AnalyzeGraph(t.Graph())
			} else {
				m, err = flatnet.AnalyzeTopology(t)
			}
		})
		r.pointMS[pi] = time.Since(t0).Seconds() * 1e3
		switch {
		case err != nil:
			o.fail("%s: %v", p.name, err)
		case m.Diameter != p.diameter:
			o.fail("%s: diameter %d, want %d", p.name, m.Diameter, p.diameter)
		}
		r.metrics[pi] = m
		r.buildMS[p.family] += build.Seconds() * 1e3
		if p.generic {
			r.bfsMS += analyze.Seconds() * 1e3
		} else {
			r.analyMS[p.family] += analyze.Seconds() * 1e3
		}
		r.endpts += float64(m.Nodes)
	}
	return r
}

// window is the round as the harness sees it: its wall clock is the sum of
// its points (the collections between them are not the program's work),
// and the round is its one operation — the points differ a hundredfold in
// cost, so the median point would be whichever two happen to sit in the
// middle.
func (r analyticRound) window() window {
	w := window{work: float64(len(r.pointMS))}
	for _, ms := range r.pointMS {
		w.wall += ms / 1e3
	}
	w.ops = []float64{w.wall * 1e3}
	return w
}

// runAnalytic is analytic_points: rounds over the point list, each point a
// constructor plus a graph analysis, no cycle simulation. The list is the
// whole input: the seed changes nothing here, because the order of the
// points decides what heap each one meets and moved their times by 30%.
func runAnalytic(e *runEnv) (*outcome, error) {
	o := &outcome{}
	// Set-up is one untimed round: it grows the heap to its working size.
	id := e.tr.begin(0, "setup")
	start := time.Now()
	first := runAnalyticRound(e, o, id)
	o.setups = append(o.setups, time.Since(start).Seconds())
	e.tr.end(id)
	var d digest
	for _, m := range first.metrics {
		d.add(fmt.Sprintf("%+v", m))
	}
	o.digest = d.sum()

	var rounds []analyticRound
	for i, end := 0, e.deadline(); i == 0 || time.Now().Before(end); i++ {
		id := e.tr.begin(0, fmt.Sprintf("round[%d]", i))
		r := runAnalyticRound(e, o, id)
		e.tr.end(id)
		rounds = append(rounds, r)
		o.windows = append(o.windows, r.window())
		same := true
		for pi := range r.metrics {
			same = same && r.metrics[pi] == first.metrics[pi]
		}
		o.check(same, "round %d metrics differ from the set-up round", i)
	}

	if e.traced() {
		per := func(f func(r analyticRound) float64) float64 {
			var xs []float64
			for _, r := range rounds {
				xs = append(xs, f(r))
			}
			return median(xs)
		}
		for _, fam := range []string{"flatfly", "slimfly", "dragonfly", "foldedclos"} {
			o.set("topo.build_ms."+fam, per(func(r analyticRound) float64 { return r.buildMS[fam] }))
			o.set("analysis.analyze_ms."+fam, per(func(r analyticRound) float64 { return r.analyMS[fam] }))
		}
		o.set("analysis.generic_bfs_ms", per(func(r analyticRound) float64 { return r.bfsMS }))
		o.set("analysis.endpoints_per_s", per(func(r analyticRound) float64 {
			ms := r.bfsMS
			for _, v := range r.analyMS {
				ms += v
			}
			return r.endpts / (ms / 1e3)
		}))
	}
	return o, nil
}
