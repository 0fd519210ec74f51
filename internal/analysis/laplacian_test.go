// Identity guards for the spectral operator: apply must perform the same
// floating-point additions in the same order as the plain scatter loop it
// replaced, so the Lanczos basis vectors and both spectral fields stay
// bit-identical (DESIGN §15, "The operator's addition order
// is frozen").
package analysis

import (
	"math"
	"testing"

	"flatnet/internal/topo"
)

// scatterLaplacian is the operator before apply kept each row's sum in a
// register: the diagonal recomputed on every application, and both ends of
// each channel updated through memory. It is the reference apply is held
// to, bit for bit.
type scatterLaplacian struct {
	c     csr
	wdeg  []float64
	shift float64
}

func newScatterLaplacian(c csr) scatterLaplacian {
	r := len(c.off) - 1
	wdeg := make([]float64, r)
	for v := 0; v < r; v++ {
		wdeg[v] += float64(c.off[v+1] - c.off[v])
		for _, w := range c.nbr[c.off[v]:c.off[v+1]] {
			wdeg[w]++
		}
	}
	shift := 0.0
	for _, d := range wdeg {
		if 2*d > shift {
			shift = 2 * d
		}
	}
	return scatterLaplacian{c, wdeg, shift}
}

func (l scatterLaplacian) apply(nv, v []float64) {
	for i := range nv {
		nv[i] = (l.shift - l.wdeg[i]) * v[i]
	}
	c := l.c
	for u := range nv {
		for _, w := range c.nbr[c.off[u]:c.off[u+1]] {
			nv[u] += v[w]
			nv[w] += v[u]
		}
	}
}

// lambdaRun is the power iteration spectralBisectionLower ran before
// Lanczos replaced it, over any operator, cut off after steps: the
// iterate, the last Rayleigh quotient (shift - λ₂ once converged), and the
// step at which the quotient converged (0 if it did not). It is the
// reference TestSpectralBelowPower holds lambda2 to.
func lambdaRun(apply func(nv, v []float64), r, steps int) (v []float64, ray float64, converged int) {
	v, nv := powerStart(r, 1)
	prev := 0.0
	for iter := 0; iter < steps; iter++ {
		apply(nv, v)
		deflate(nv)
		ray = dot(nv, v)
		normalize(nv)
		v, nv = nv, v
		if iter > 16 && math.Abs(ray-prev) <= 1e-9*math.Abs(ray) {
			return v, ray, iter + 1
		}
		prev = ray
	}
	return v, ray, 0
}

// fiedlerRun is the power iteration the candidate cut's ordering came
// from before Lanczos replaced it (200 steps from powerStart(r, 2)), over
// any operator, cut off after steps. It is the operator reference here and
// the ordering TestSpectralUpperNotAbovePower holds the cut to.
func fiedlerRun(apply func(nv, v []float64), r, steps int) []float64 {
	v, nv := powerStart(r, 2)
	for iter := 0; iter < steps; iter++ {
		apply(nv, v)
		deflate(nv)
		normalize(nv)
		v, nv = nv, v
	}
	return v
}

// firstBitDiff returns the first index where a and b differ in any bit,
// or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkOperator holds newLaplacian(c).apply to the scatter reference on
// both power loops: every element of the iterate after 50 steps.
func checkOperator(t *testing.T, name string, c csr) {
	t.Helper()
	l := newLaplacian(c)
	ref := newScatterLaplacian(c)
	r := len(c.off) - 1
	if l.shift != ref.shift {
		t.Fatalf("%s: shift %v, reference %v", name, l.shift, ref.shift)
	}
	const steps = 50
	got, want := fiedlerRun(l.apply, r, steps), fiedlerRun(ref.apply, r, steps)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s: Fiedler iterate after %d steps differs at router %d: %v, reference %v", name, steps, i, got[i], want[i])
	}
	got, _, _ = lambdaRun(l.apply, r, steps)
	want, _, _ = lambdaRun(ref.apply, r, steps)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s: λ₂ iterate after %d steps differs at router %d: %v, reference %v", name, steps, i, got[i], want[i])
	}
}

// csrOf builds the adjacency straight from per-router out-neighbour lists,
// in list order.
func csrOf(adj [][]int32) csr {
	c := csr{off: make([]int32, len(adj)+1)}
	for u, ws := range adj {
		c.nbr = append(c.nbr, ws...)
		c.off[u+1] = int32(len(c.nbr))
	}
	return c
}

// TestLaplacianApplyMatchesScatter covers every spec-table family at two
// sizes and the channel shapes no family builds but topo.Graph allows.
func TestLaplacianApplyMatchesScatter(t *testing.T) {
	families := []struct {
		name  string
		build func() (topo.Topology, error)
	}{
		{"flatfly 4-ary 3-flat", func() (topo.Topology, error) { return topo.NewFlatFly(4, 3) }},
		{"flatfly 4-ary 2-flat x2", func() (topo.Topology, error) { return topo.NewFlatFly(4, 2, topo.WithMultiplicity(2)) }},
		{"butterfly 4-ary 3-fly", func() (topo.Topology, error) { return topo.NewButterfly(4, 3) }},
		{"butterfly dilated", func() (topo.Topology, error) { return topo.NewDilatedButterfly(2, 3, 2) }},
		{"foldedclos 4/4/6/4", func() (topo.Topology, error) { return topo.NewFoldedClos(4, 4, 6, 4) }},
		{"foldedclos 2:1 taper", func() (topo.Topology, error) { return topo.NewFoldedClos(8, 4, 8, 2) }},
		{"hypercube 5", func() (topo.Topology, error) { return topo.NewHypercube(5) }},
		{"hypercube concentrated", func() (topo.Topology, error) { return topo.NewConcentratedHypercube(4, 3) }},
		{"torus 5-ary 2-cube", func() (topo.Topology, error) { return topo.NewTorus(5, 2) }},
		{"torus 2-ary 3-cube", func() (topo.Topology, error) { return topo.NewTorus(2, 3) }},
		{"ghc 4x4", func() (topo.Topology, error) { return topo.NewGHC([]int{4, 4}) }},
		{"ghc 3x4x5", func() (topo.Topology, error) { return topo.NewGHC([]int{3, 4, 5}) }},
		{"slimfly q=5", func() (topo.Topology, error) { return topo.NewSlimFly(5, 2) }},
		{"slimfly q=7", func() (topo.Topology, error) { return topo.NewSlimFly(7, 0) }},
		{"dragonfly h=2", func() (topo.Topology, error) { return topo.NewDragonfly(0, 0, 2) }},
		{"dragonfly unbalanced", func() (topo.Topology, error) { return topo.NewDragonfly(2, 5, 2) }},
	}
	for _, f := range families {
		tp, err := f.build()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		c := buildCSR(tp.Graph())
		if newLaplacian(c).selfLoop {
			t.Errorf("%s: reports a self-loop channel", f.name)
		}
		checkOperator(t, f.name, c)
	}

	for _, tc := range []struct {
		name     string
		adj      [][]int32
		selfLoop bool
	}{
		// A bidirectional ring with a loop first in router 0's row and in
		// the middle of router 2's.
		{"self-loop", [][]int32{{0, 1, 3}, {0, 2}, {1, 2, 3}, {2, 0}}, true},
		// A complete graph on four routers with 0-1 tripled one way and
		// doubled the other.
		{"parallel channels", [][]int32{{1, 1, 2, 3, 1}, {0, 2, 0, 3}, {0, 1, 3}, {0, 1, 2}}, false},
		// A 2-ary 3-stage butterfly: channels only run stage to stage,
		// and the last stage has no out-channel.
		{"unidirectional butterfly", [][]int32{{2, 3}, {2, 3}, {4, 5}, {4, 5}, {}, {}}, false},
		// A ring with router 2 attached to nothing.
		{"router without network port", [][]int32{{1, 4}, {0, 3}, {}, {1, 4}, {3, 0}}, false},
	} {
		c := csrOf(tc.adj)
		if got := newLaplacian(c).selfLoop; got != tc.selfLoop {
			t.Errorf("%s: selfLoop %v, want %v", tc.name, got, tc.selfLoop)
		}
		checkOperator(t, tc.name, c)
	}
}

// FuzzLaplacianApply holds apply to the scatter reference on random
// channel multigraphs of up to 48 routers: the first byte picks the router
// count, every following pair of bytes adds one channel (u, w), self-loops
// and parallel channels included.
func FuzzLaplacianApply(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{4, 0, 0, 0, 1, 1, 0, 2, 3, 3, 2, 3, 3})
	f.Add([]byte{6, 0, 2, 0, 3, 1, 2, 1, 3, 2, 4, 2, 5, 3, 4, 3, 5})
	f.Add([]byte{47, 5, 9, 9, 5, 5, 9, 40, 41, 46, 46, 0, 46})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := 1 + int(data[0])%48
		adj := make([][]int32, r)
		for i := 1; i+1 < len(data) && i < 1+2*512; i += 2 {
			u, w := int(data[i])%r, int(data[i+1])%r
			adj[u] = append(adj[u], int32(w))
		}
		checkOperator(t, "fuzz", csrOf(adj))
	})
}

// spectralSink keeps BenchmarkSpectral's results live.
var spectralSink float64

// BenchmarkSpectral runs both Lanczos runs — no sweep — on the two
// flatbench points where they cost most per router. It reports the step
// counts of the λ₂ and Fiedler runs and ns per operator application over
// every application made (λ₂ steps, Fiedler steps and the Fiedler
// replay's steps - 1): the quick A/B twin of analytic_points for a change
// to apply, lambda2 or fiedlerRitz.
func BenchmarkSpectral(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (topo.Topology, error)
	}{
		{"slimfly_q29", func() (topo.Topology, error) { return topo.NewSlimFly(29, 0) }},
		{"dragonfly_h6", func() (topo.Topology, error) { return topo.NewDragonfly(0, 0, 6) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tp, err := bc.build()
			if err != nil {
				b.Fatal(err)
			}
			g := tp.Graph()
			l := newLaplacian(buildCSR(g))
			r := g.NumRouters()
			ones := make([]int64, r)
			for i := range ones {
				ones[i] = 1
			}
			_, steps := lambda2(l, lambdaSteps)
			if steps == 0 {
				steps = lambdaSteps
			}
			_, fsteps := fiedlerRitz(l, lambdaSteps)
			applies := steps + fsteps + fsteps - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fied, _ := fiedlerRitz(l, lambdaSteps)
				spectralSink += spectralBisectionLower(l, ones, ones) + fied[0]
			}
			b.ReportMetric(float64(steps), "lambda2_steps")
			b.ReportMetric(float64(fsteps), "fiedler_steps")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*applies), "ns/apply")
		})
	}
}
