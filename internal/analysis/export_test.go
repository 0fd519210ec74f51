package analysis

import (
	"fmt"

	"flatnet/internal/topo"
)

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

// BFSCountsMatchesFullScan runs bfsCounts from every router of g beside
// bfsFullScan and reports the first router whose dist or paths differ.
func BFSCountsMatchesFullScan(g *topo.Graph) error {
	c := buildCSR(g)
	r := g.NumRouters()
	dist, paths, queue := make([]int32, r), make([]float64, r), make([]int32, 0, r)
	for src := 0; src < r; src++ {
		bfsCounts(c, src, dist, paths, queue)
		wantDist, wantPaths := bfsFullScan(c, src)
		for v := 0; v < r; v++ {
			if dist[v] != wantDist[v] || paths[v] != wantPaths[v] {
				return fmt.Errorf("from router %d: router %d at (dist %d, paths %v), full scan (%d, %v)",
					src, v, dist[v], paths[v], wantDist[v], wantPaths[v])
			}
		}
	}
	return nil
}

// bfsFullScan is bfsCounts without the last-level exit: every queued
// router's edges are scanned.
func bfsFullScan(c csr, src int) ([]int32, []float64) {
	r := len(c.off) - 1
	dist, paths := make([]int32, r), make([]float64, r)
	for i := range dist {
		dist[i] = -1
	}
	dist[src], paths[src] = 0, 1
	queue := []int32{int32(src)}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, w := range c.nbr[c.off[v]:c.off[v+1]] {
			switch {
			case dist[w] < 0:
				dist[w] = dist[v] + 1
				paths[w] = paths[v]
				queue = append(queue, w)
			case dist[w] == dist[v]+1:
				paths[w] += paths[v]
			}
		}
	}
	return dist, paths
}
