// Graph-analytic evaluation (the EvalNet methodology): diameter, average
// shortest path, path diversity and bisection-bandwidth bounds computed
// from the channel graph alone, so design-space comparisons at extreme
// scale run in milliseconds without cycle simulation. Every spec-table
// family exposes RouterOrbits (DESIGN §15 lists the automorphism behind
// each) and is evaluated from one BFS per orbit that injects; any other
// topology falls back to a parallel all-sources sweep, which is also the
// reference the orbit claims are tested against. The source sweep and the
// two Lanczos runs behind the bisection bounds only read the adjacency, so
// they run side by side.
package analysis

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"flatnet/internal/topo"
)

// Metrics is the analytic summary of one topology instance. Hop metrics
// are terminal-weighted: distances are measured from each terminal's
// injection router to each terminal's ejection router (the same
// semantics as the simulator's hop counter and the zero-load oracle),
// with self pairs included in AvgHops, matching AvgUniformMinHops.
type Metrics struct {
	Nodes    int `json:"nodes"`
	Routers  int `json:"routers"`
	Channels int `json:"channels"` // unidirectional network channels

	// Diameter is the maximum injection-router to ejection-router
	// distance over terminal pairs.
	Diameter int `json:"diameter"`
	// AvgHops is the expected minimal inter-router hop count under
	// uniform traffic, self pairs included.
	AvgHops float64 `json:"avg_hops"`
	// PathDiversity is the mean number of distinct minimal router paths
	// over terminal pairs (same-router pairs count one path).
	PathDiversity float64 `json:"path_diversity"`

	// BisectionLowerChannels is a spectral (Fiedler-value) estimate of
	// the minimum unidirectional channel count across a balanced router
	// cut: lambda_2 * R / 4 for the symmetrized channel multigraph. For
	// edge- and vertex-transitive families it is exact or near-exact.
	// It is 0 — no bound — for graphs whose routers host unequal terminal
	// counts, where a router-balanced cut is not a terminal bisection,
	// and for graphs whose lambda_2 iteration has not converged within
	// its step cap: the iterate approaches lambda_2 from above, so an
	// unconverged value would not be a lower bound.
	BisectionLowerChannels float64 `json:"bisection_lower_channels"`
	// BisectionUpperChannels is the best (fewest-channel) balanced cut
	// found among candidate partitions — an upper bound on the true
	// bisection channel count.
	BisectionUpperChannels float64 `json:"bisection_upper_channels"`
}

// orbitTopology is implemented by topologies whose router set decomposes
// into known automorphism orbits; representatives plus orbit sizes let
// global metrics come from a handful of BFS sweeps.
type orbitTopology interface {
	RouterOrbits() (reps []topo.RouterID, sizes []int)
}

// AnalyzeTopology analyzes a topology, exploiting RouterOrbits when the
// concrete type provides it.
func AnalyzeTopology(t topo.Topology) (Metrics, error) {
	m, _, err := analyzeTopology(t)
	return m, err
}

// analyzeTopology also reports how many BFS sources the sweep ran.
func analyzeTopology(t topo.Topology) (Metrics, int, error) {
	if ot, ok := t.(orbitTopology); ok {
		reps, sizes := ot.RouterOrbits()
		return analyzeWithOrbits(t.Graph(), reps, sizes)
	}
	return analyze(t.Graph(), nil, nil)
}

// Analyze computes the metrics from the channel graph alone with an
// all-sources BFS sweep, parallelized across CPUs.
func Analyze(g *topo.Graph) (Metrics, error) {
	m, _, err := analyze(g, nil, nil)
	return m, err
}

// AnalyzeWithOrbits computes the metrics from one BFS per router orbit.
// The orbit sizes must sum to the router count; every router of an orbit
// must have the same terminal attachment and distance profile as its
// representative (true for graph automorphism orbits of topologies with
// uniform concentration).
func AnalyzeWithOrbits(g *topo.Graph, reps []topo.RouterID, sizes []int) (Metrics, error) {
	m, _, err := analyzeWithOrbits(g, reps, sizes)
	return m, err
}

func analyzeWithOrbits(g *topo.Graph, reps []topo.RouterID, sizes []int) (Metrics, int, error) {
	if len(reps) != len(sizes) {
		return Metrics{}, 0, fmt.Errorf("analysis: %d orbit reps but %d sizes", len(reps), len(sizes))
	}
	total := 0
	for i, s := range sizes {
		if s <= 0 || s > g.NumRouters() {
			return Metrics{}, 0, fmt.Errorf("analysis: orbit %d has size %d, want 1..%d", i, s, g.NumRouters())
		}
		if reps[i] < 0 || int(reps[i]) >= g.NumRouters() {
			return Metrics{}, 0, fmt.Errorf("analysis: orbit %d representative %d outside [0, %d)", i, reps[i], g.NumRouters())
		}
		total += s
	}
	if total != g.NumRouters() {
		return Metrics{}, 0, fmt.Errorf("analysis: orbit sizes sum to %d, want %d routers", total, g.NumRouters())
	}
	return analyze(g, reps, sizes)
}

// csr is a compact adjacency view of the network channels.
type csr struct {
	off []int32
	nbr []int32
}

func buildCSR(g *topo.Graph) csr {
	r := g.NumRouters()
	deg := make([]int32, r)
	channels := 0
	for i := range g.Routers {
		for _, out := range g.Routers[i].Out {
			if out.Kind == topo.Network {
				deg[i]++
				channels++
			}
		}
	}
	c := csr{off: make([]int32, r+1), nbr: make([]int32, channels)}
	for i := 0; i < r; i++ {
		c.off[i+1] = c.off[i] + deg[i]
	}
	fill := make([]int32, r)
	for i := range g.Routers {
		for _, out := range g.Routers[i].Out {
			if out.Kind == topo.Network {
				c.nbr[c.off[i]+fill[i]] = int32(out.Peer)
				fill[i]++
			}
		}
	}
	return c
}

// bfsCounts runs BFS from src over the channel adjacency, filling dist
// (hops) and paths (number of distinct minimal paths, saturating
// float64). The slices are caller-provided scratch of length R.
func bfsCounts(c csr, src int, dist []int32, paths []float64, queue []int32) {
	for i := range dist {
		dist[i] = -1
		paths[i] = 0
	}
	dist[src] = 0
	paths[src] = 1
	queue = queue[:0]
	queue = append(queue, int32(src))
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		dv := dist[v]
		for _, w := range c.nbr[c.off[v]:c.off[v+1]] {
			switch {
			case dist[w] < 0:
				dist[w] = dv + 1
				paths[w] = paths[v]
				queue = append(queue, w)
			case dist[w] == dv+1:
				paths[w] += paths[v]
			}
		}
	}
}

// source is one BFS root of the sweep.
type source struct {
	router topo.RouterID
	weight int64 // terminal-pair weight multiplier: injTerms * orbit size
}

// sweepSums is what the source sweep accumulates. Hop and path sums are
// sums of integers (exact below 2^53), so neither the source order nor the
// split across workers moves them.
type sweepSums struct {
	hopSum  float64
	pathSum float64
	pairW   float64
	diam    int32
	runs    int // BFS sources swept
}

// sweep runs one BFS per source, striped over up to GOMAXPROCS workers,
// and weighs every reached ejection router by its terminal count.
func sweep(c csr, sources []source, ejTerms []int64) (sweepSums, error) {
	r := len(ejTerms)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sources) {
		workers = len(sources)
	}
	parts := make([]sweepSums, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dist := make([]int32, r)
			paths := make([]float64, r)
			queue := make([]int32, 0, r)
			pt := &parts[w]
			for si := w; si < len(sources); si += workers {
				s := sources[si]
				bfsCounts(c, int(s.router), dist, paths, queue)
				pt.runs++
				for d := 0; d < r; d++ {
					if ejTerms[d] == 0 {
						continue
					}
					if dist[d] < 0 {
						errs[w] = fmt.Errorf("analysis: router %d unreachable from router %d", d, s.router)
						return
					}
					wgt := float64(s.weight) * float64(ejTerms[d])
					pt.hopSum += wgt * float64(dist[d])
					pt.pathSum += wgt * paths[d]
					pt.pairW += wgt
					if dist[d] > pt.diam {
						pt.diam = dist[d]
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var sum sweepSums
	for w, pt := range parts {
		if errs[w] != nil {
			return sweepSums{}, errs[w]
		}
		sum.hopSum += pt.hopSum
		sum.pathSum += pt.pathSum
		sum.pairW += pt.pairW
		sum.runs += pt.runs
		if pt.diam > sum.diam {
			sum.diam = pt.diam
		}
	}
	return sum, nil
}

// analyze is the shared implementation. With reps == nil every router
// that injects terminals is a source, weighted by its terminal count;
// with orbits, the representatives stand in for their orbits. The int is
// the number of BFS sources swept.
func analyze(g *topo.Graph, reps []topo.RouterID, sizes []int) (Metrics, int, error) {
	r := g.NumRouters()
	if r == 0 || g.NumNodes == 0 {
		return Metrics{}, 0, fmt.Errorf("analysis: empty graph %q", g.Label)
	}
	c := buildCSR(g)

	// Terminal weights per router: injTerms for sources, ejTerms for
	// destinations (they differ in unidirectional multistage networks).
	injTerms := make([]int64, r)
	ejTerms := make([]int64, r)
	for n := 0; n < g.NumNodes; n++ {
		injTerms[g.NodeRouter[n]]++
		ejTerms[g.EjRouter[n]]++
	}

	var sources []source
	if reps != nil {
		// Orbit weights must cover every injecting terminal exactly.
		var covered int64
		for i, rep := range reps {
			if injTerms[rep] == 0 {
				continue
			}
			w := injTerms[rep] * int64(sizes[i])
			sources = append(sources, source{rep, w})
			covered += w
		}
		if covered != int64(g.NumNodes) {
			return Metrics{}, 0, fmt.Errorf("analysis: orbit reps cover %d terminal weights, want %d (non-uniform concentration?)", covered, g.NumNodes)
		}
	} else {
		for i := 0; i < r; i++ {
			if injTerms[i] > 0 {
				sources = append(sources, source{topo.RouterID(i), injTerms[i]})
			}
		}
	}

	// The two Lanczos runs (λ₂ for the lower bound, the Fiedler ordering
	// for the candidate cut) and the source sweep share nothing but
	// read-only inputs (c, lap, the terminal counts): run them side by side.
	lap := newLaplacian(c)
	var lower, upper float64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		lower = spectralBisectionLower(lap, injTerms, ejTerms)
	}()
	go func() {
		defer wg.Done()
		fied, _ := fiedlerRitz(lap, lambdaSteps)
		upper = bestCandidateCut(c, fied, injTerms, int64(g.NumNodes))
	}()
	sum, err := sweep(c, sources, ejTerms)
	wg.Wait()
	if err != nil {
		return Metrics{}, 0, err
	}

	return Metrics{
		Nodes:                  g.NumNodes,
		Routers:                r,
		Channels:               len(c.nbr),
		Diameter:               int(sum.diam),
		AvgHops:                sum.hopSum / sum.pairW,
		PathDiversity:          sum.pathSum / sum.pairW,
		BisectionLowerChannels: lower,
		BisectionUpperChannels: upper,
	}, sum.runs, nil
}

// uniformConcentration reports whether every router hosts the same
// terminal count on both sides (so router-balanced cuts bisect
// terminals).
func uniformConcentration(injTerms, ejTerms []int64) bool {
	for i := range injTerms {
		if injTerms[i] != injTerms[0] || ejTerms[i] != ejTerms[0] {
			return false
		}
	}
	return true
}

// laplacian is shift*I - L for the symmetrized channel multigraph (each
// unidirectional channel contributing weight 1), the operator both
// Lanczos runs apply. It is read-only once built.
type laplacian struct {
	c        csr
	diag     []float64 // shift - (out-degree + in-degree): the operator's diagonal
	shift    float64   // 2 * max degree, so shift*I - L is positive semidefinite
	selfLoop bool      // some channel leaves and enters the same router
}

func newLaplacian(c csr) laplacian {
	r := len(c.off) - 1
	// Weighted degree: out-degree + in-degree, 2x the out-degree when
	// every channel is paired. The slice becomes the diagonal in place.
	wdeg := make([]float64, r)
	selfLoop := false
	for v := 0; v < r; v++ {
		wdeg[v] += float64(c.off[v+1] - c.off[v])
		for _, w := range c.nbr[c.off[v]:c.off[v+1]] {
			wdeg[w]++
			selfLoop = selfLoop || int(w) == v
		}
	}
	shift := 0.0
	for _, d := range wdeg {
		if 2*d > shift {
			shift = 2 * d
		}
	}
	diag := wdeg
	for i, d := range wdeg {
		diag[i] = shift - d
	}
	return laplacian{c, diag, shift, selfLoop}
}

// apply sets nv = (shift*I - L) v. The order of the floating-point
// additions into every nv[x] is frozen (DESIGN §15): diag[x]*v[x], then
// one term per channel incident to x in ascending row order. Row u's own
// sum stays in a register rather than going through nv[u] on every
// channel; the scatters into nv[w] go to distinct addresses and overlap.
func (l laplacian) apply(nv, v []float64) {
	for i, d := range l.diag {
		nv[i] = d * v[i]
	}
	if l.selfLoop {
		l.applyLoops(nv, v)
		return
	}
	c := l.c
	for u := range nv {
		acc, vu := nv[u], v[u]
		for _, w := range c.nbr[c.off[u]:c.off[u+1]] {
			acc += v[w]
			nv[w] += vu
		}
		nv[u] = acc
	}
}

// applyLoops is apply's row loop for a CSR holding a self-loop channel,
// whose scatter into nv[u] would be lost under the register: it goes into
// the register instead, right after the gather, where the scatter form
// put it. No spec-table family builds one, and the w == u test cost 18%
// in apply's loop on graphs without one, so it lives only here.
func (l laplacian) applyLoops(nv, v []float64) {
	c := l.c
	for u := range nv {
		acc, vu := nv[u], v[u]
		for _, w := range c.nbr[c.off[u]:c.off[u+1]] {
			acc += v[w]
			if int(w) == u {
				acc += vu
			} else {
				nv[w] += vu
			}
		}
		nv[u] = acc
	}
}

// powerStart returns the deterministic, non-constant, deflated and
// normalized start vector sin(a*i + 1), plus scratch of the same length.
func powerStart(r, a int) (v, nv []float64) {
	v = make([]float64, r)
	nv = make([]float64, r)
	for i := range v {
		v[i] = math.Sin(float64(a*i + 1))
	}
	deflate(v)
	normalize(v)
	return v, nv
}

// lambdaSteps caps both Lanczos runs: lambda_2's and the Fiedler
// ordering's.
const lambdaSteps = 500

// spectralBisectionLower estimates the minimum unidirectional channel
// count across a balanced router cut as lambda_2 * R / 4, where lambda_2
// is the algebraic connectivity of the symmetrized channel multigraph.
// Returns 0 — no bound — for non-uniform concentration, where the bound
// does not speak to terminal bisection, and when lambda2 has not
// converged within lambdaSteps steps.
func spectralBisectionLower(l laplacian, injTerms, ejTerms []int64) float64 {
	r := len(l.diag)
	if r < 2 || !uniformConcentration(injTerms, ejTerms) {
		return 0
	}
	lam, steps := lambda2(l, lambdaSteps)
	if steps == 0 {
		return 0
	}
	return lam * float64(r) / 4
}

// lambda2 returns the algebraic connectivity of the symmetrized channel
// multigraph and the number of Lanczos steps that found it, or steps == 0
// when maxSteps did not suffice. The top Ritz value of lanczos climbs
// towards shift - lambda_2 from below, so stopping early would report a
// lambda_2 that is too large.
func lambda2(l laplacian, maxSteps int) (float64, int) {
	t := lanczos(l, 1, maxSteps)
	if !t.converged {
		return 0, 0
	}
	return math.Max(l.shift-t.theta, 0), len(t.alpha)
}

// krylov is the state of one Lanczos recurrence on shift*I - L: the
// current basis vector v, its predecessor prev (0 before the first step)
// and scratch w. Its three methods are the only arithmetic of a step, so a
// replay that feeds them the recorded alpha and beta rebuilds every basis
// vector bit for bit.
type krylov struct {
	l          laplacian
	v, w, prev []float64
}

func newKrylov(l laplacian, start int) *krylov {
	v, w := powerStart(len(l.diag), start)
	return &krylov{l, v, w, make([]float64, len(v))}
}

// product sets w = (shift*I - L) v, deflated, minus b*prev.
func (k *krylov) product(b float64) {
	k.l.apply(k.w, k.v)
	deflate(k.w)
	for i := range k.w {
		k.w[i] -= b * k.prev[i]
	}
}

// orthogonalize subtracts a*v from w.
func (k *krylov) orthogonalize(a float64) {
	for i := range k.w {
		k.w[i] -= a * k.v[i]
	}
}

// advance scales w by 1/b and makes it the next basis vector.
func (k *krylov) advance(b float64) {
	for i := range k.w {
		k.w[i] /= b
	}
	k.prev, k.v, k.w = k.v, k.w, k.prev
}

// tridiag is what a Lanczos run leaves of its k steps: T_k's diagonal
// alpha (k entries) and off-diagonal beta (k-1), T_k's top eigenvalue
// theta with eigenvector z (z_k = 1), and whether the stop rule fired.
type tridiag struct {
	alpha, beta, z []float64
	theta          float64
	converged      bool
}

// lanczos runs the Lanczos iteration on shift*I - L from powerStart(r,
// start), restricted to the complement of the constant vector (every step
// is deflated again), with the three-term recurrence and no
// reorthogonalisation: only the top Ritz pair of the tridiagonal T_k is
// used, and lost orthogonality only adds copies of values that have
// already converged. The run stops when the top Ritz value moves by at
// most 1e-12 relative, or when the residual bound beta_k * |s_k| of the
// Ritz pair is within 1e-12 of the operator's scale (shift), which an
// exact invariant subspace (beta_k ~ 0) reaches first. A run that hits
// maxSteps returns its last T_k unconverged. Only three R-vectors are
// live; the basis is not kept.
func lanczos(l laplacian, start, maxSteps int) tridiag {
	k := newKrylov(l, start)
	var t tridiag
	b := 0.0 // beta_{k-1}; prev is 0 on the first step
	for step := 1; step <= maxSteps; step++ {
		k.product(b)
		a := dot(k.w, k.v)
		k.orthogonalize(a)
		t.alpha = append(t.alpha, a)
		b = math.Sqrt(dot(k.w, k.w))
		last := t.theta
		t.theta, t.z = topRitz(t.alpha, t.beta)
		if b*lastComponent(t.z) <= 1e-12*l.shift || math.Abs(t.theta-last) <= 1e-12*t.theta {
			t.converged = true
			return t
		}
		if step == maxSteps {
			break
		}
		t.beta = append(t.beta, b)
		k.advance(b)
	}
	return t
}

// fiedlerRitz returns the Ritz vector x = sum z_i v_i of the Lanczos run
// from powerStart(r, 2) — an approximation of the Fiedler vector, the
// candidate cut's spectral ordering — and the run's step count. The run
// stops by lanczos's rule or at maxSteps; an unconverged run still yields
// its last Ritz vector, and any ordering gives a real cut.
// The basis vectors are not stored: a second pass replays the recurrence
// with the recorded alpha and beta, which reproduces each v_i bit for bit,
// and accumulates x as it goes, so the extra memory is O(R).
func fiedlerRitz(l laplacian, maxSteps int) ([]float64, int) {
	t := lanczos(l, 2, maxSteps)
	k := newKrylov(l, 2)
	x := make([]float64, len(k.v))
	for i, vi := range k.v {
		x[i] = t.z[0] * vi
	}
	b := 0.0
	for j, bj := range t.beta {
		k.product(b)
		k.orthogonalize(t.alpha[j])
		k.advance(bj)
		b = bj
		for i, vi := range k.v {
			x[i] += t.z[j+1] * vi
		}
	}
	return x, len(t.alpha)
}

// topRitz returns the largest eigenvalue theta of the symmetric
// tridiagonal matrix T with diagonal a and off-diagonal b (len(a)-1
// entries, all positive), and its eigenvector z scaled to z_k = 1. theta
// is the upper end of a bisection on the Sturm count, so theta*I - T has
// positive pivots above the last; the eigenvector solves the transposed
// factor of theta*I - T against the last unit vector, z_i = b_i/d_i *
// z_{i+1}.
func topRitz(a, b []float64) (theta float64, z []float64) {
	lo, hi := math.Inf(1), math.Inf(-1) // Gershgorin bounds
	for i, ai := range a {
		r := 0.0
		if i > 0 {
			r += b[i-1]
		}
		if i < len(b) {
			r += b[i]
		}
		lo, hi = math.Min(lo, ai-r), math.Max(hi, ai+r)
	}
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if sturmBelow(a, b, mid) == len(a) {
			hi = mid
		} else {
			lo = mid
		}
	}
	pivots := make([]float64, len(b))
	for i := range b {
		pivots[i] = hi - a[i]
		if i > 0 {
			pivots[i] -= b[i-1] * b[i-1] / pivots[i-1]
		}
	}
	z = make([]float64, len(a))
	z[len(b)] = 1
	for i := len(b) - 1; i >= 0; i-- {
		z[i] = z[i+1] * (b[i] / pivots[i])
	}
	return hi, z
}

// lastComponent returns |s_k|, the last component of z once z is scaled
// to unit length; the squares are summed from the last entry down.
func lastComponent(z []float64) float64 {
	norm2 := 0.0
	for i := len(z) - 1; i >= 0; i-- {
		norm2 += z[i] * z[i]
	}
	return 1 / math.Sqrt(norm2)
}

// sturmBelow counts the eigenvalues of the tridiagonal matrix (a, b) below
// x: the negative pivots of T - x*I. A zero pivot counts as negative.
func sturmBelow(a, b []float64, x float64) int {
	n, d := 0, 0.0
	for i, ai := range a {
		if i == 0 {
			d = ai - x
		} else {
			d = ai - x - b[i-1]*b[i-1]/d
		}
		if d == 0 {
			d = -math.SmallestNonzeroFloat64
		}
		if d < 0 {
			n++
		}
	}
	return n
}

func deflate(v []float64) {
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for i := range v {
		v[i] -= mean
	}
}

func normalize(v []float64) {
	n := math.Sqrt(dot(v, v))
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// bestCandidateCut returns the fewest unidirectional channels crossing
// any of a set of candidate terminal-balanced cuts: contiguous
// router-index prefixes (the natural packaging order) and the routers
// sorted by the spectral vector fied (exact eigenvector quality is not
// required for a candidate cut). Each candidate splits the routers at the
// point where half the terminals are on each side.
func bestCandidateCut(c csr, fied []float64, terms []int64, totalTerms int64) float64 {
	r := len(terms)
	if r < 2 {
		return 0
	}

	cutChannels := func(side []bool) float64 {
		cut := 0
		for v := 0; v < r; v++ {
			for _, w := range c.nbr[c.off[v]:c.off[v+1]] {
				if side[v] != side[w] {
					cut++
				}
			}
		}
		return float64(cut)
	}
	// Balanced split of an ordering at the half-terminal point.
	splitAt := func(order []int32) []bool {
		side := make([]bool, r)
		var acc int64
		for _, v := range order {
			if 2*acc < totalTerms {
				side[v] = true
			}
			acc += terms[v]
		}
		return side
	}

	order := make([]int32, r)
	for i := range order {
		order[i] = int32(i)
	}
	best := cutChannels(splitAt(order))
	sort.SliceStable(order, func(i, j int) bool { return fied[order[i]] < fied[order[j]] })
	if cut := cutChannels(splitAt(order)); cut < best {
		best = cut
	}
	return best
}
