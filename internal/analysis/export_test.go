package analysis

import "flatnet/internal/topo"

// AnalyzeTopologyCounting is AnalyzeTopology plus the number of BFS
// sources its sweep ran — a count repeats exactly where a wall clock does
// not, so the tests pin the cost of analytic mode with it.
var AnalyzeTopologyCounting = analyzeTopology

// PowerOrderUpper is the upper bound analytic mode reported while the
// candidate cut's ordering came from the 200-step power iteration
// (fiedlerRun): the same candidates, split the same way.
func PowerOrderUpper(g *topo.Graph) float64 {
	c := buildCSR(g)
	l := newLaplacian(c)
	injTerms := make([]int64, g.NumRouters())
	for n := 0; n < g.NumNodes; n++ {
		injTerms[g.NodeRouter[n]]++
	}
	return bestCandidateCut(c, fiedlerRun(l.apply, len(l.diag), 200), injTerms, int64(g.NumNodes))
}
