// Reference checks for the Lanczos λ₂: closed forms at two sizes per
// family, a dense Jacobi eigensolver on small graphs without one, the
// power iteration it replaced, and the step-cap rule.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"flatnet/internal/topo"
)

// lanczosOf builds a topology's operator and runs lambda2 under the
// production cap.
func lanczosOf(t *testing.T, name string, build func() (topo.Topology, error)) (l laplacian, lambda float64, steps int) {
	t.Helper()
	tp, err := build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	l = newLaplacian(buildCSR(tp.Graph()))
	lambda, steps = lambda2(l, lambdaSteps)
	if steps == 0 {
		t.Fatalf("%s: λ₂ did not converge within %d steps", name, lambdaSteps)
	}
	return l, lambda, steps
}

// relDiff is |got-want| / |want|.
func relDiff(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestSpectralClosedForms holds λ₂·R/4 to the families whose Laplacian
// spectrum is known exactly, at two sizes each, within 1e-9 relative.
func TestSpectralClosedForms(t *testing.T) {
	torus := func(k, n int) float64 {
		return 2 * (2 - 2*math.Cos(2*math.Pi/float64(k))) * math.Pow(float64(k), float64(n)) / 4
	}
	for _, tc := range []struct {
		name  string
		build func() (topo.Topology, error)
		want  float64
	}{
		// k-ary n-flat: λ₂ = 2k over k^(n-1) routers, so k^n/2.
		{"flatfly 8-ary 3-flat", func() (topo.Topology, error) { return topo.NewFlatFly(8, 3) }, 8 * 8 * 8 / 2},
		{"flatfly 16-ary 4-flat", func() (topo.Topology, error) { return topo.NewFlatFly(16, 4) }, 16 * 16 * 16 * 16 / 2},
		// The complete graph on k routers, each link a channel pair.
		{"complete 16-ary 2-flat", func() (topo.Topology, error) { return topo.NewFlatFly(16, 2) }, 16 * 16 / 2},
		{"complete 64-ary 2-flat", func() (topo.Topology, error) { return topo.NewFlatFly(64, 2) }, 64 * 64 / 2},
		// d-cube: λ₂ = 4 over 2^d routers.
		{"hypercube 6", func() (topo.Topology, error) { return topo.NewHypercube(6) }, 64},
		{"hypercube 10", func() (topo.Topology, error) { return topo.NewHypercube(10) }, 1024},
		// MMS graph over GF(q): q^3.
		{"slimfly q=5", func() (topo.Topology, error) { return topo.NewSlimFly(5, 0) }, 5 * 5 * 5},
		{"slimfly q=43", func() (topo.Topology, error) { return topo.NewSlimFly(43, 0) }, 43 * 43 * 43},
		// k-ary n-cube: λ₂ = 2(2 - 2cos(2π/k)).
		{"torus 8-ary 2-cube", func() (topo.Topology, error) { return topo.NewTorus(8, 2) }, torus(8, 2)},
		{"torus 6-ary 3-cube", func() (topo.Topology, error) { return topo.NewTorus(6, 3) }, torus(6, 3)},
	} {
		l, lambda, steps := lanczosOf(t, tc.name, tc.build)
		got := lambda * float64(len(l.diag)) / 4
		if relDiff(got, tc.want) > 1e-9 {
			t.Errorf("%s: λ₂·R/4 = %.12g after %d steps, want %.12g", tc.name, got, steps, tc.want)
		}
	}
}

// denseLaplacian is the Laplacian of the symmetrized channel multigraph as
// a dense row-major r×r matrix: weighted degree (out + in) on the
// diagonal, minus the channel count each way off it. Self-loops cancel.
func denseLaplacian(c csr) (m []float64, r int) {
	r = len(c.off) - 1
	m = make([]float64, r*r)
	for u := 0; u < r; u++ {
		for _, w := range c.nbr[c.off[u]:c.off[u+1]] {
			v := int(w)
			m[u*r+u]++
			m[v*r+v]++
			m[u*r+v]--
			m[v*r+u]--
		}
	}
	return m, r
}

// jacobiEigenvalues returns the eigenvalues of the symmetric n×n matrix a
// (row-major) in ascending order, by cyclic Jacobi rotations. It
// overwrites a.
func jacobiEigenvalues(a []float64, n int) []float64 {
	frob := 0.0
	for _, x := range a {
		frob += x * x
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for _, x := range a[p*n+p+1 : p*n+n] {
				off += x * x
			}
		}
		if off <= 1e-24*frob {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if apq == 0 {
					continue
				}
				theta := (a[q*n+q] - a[p*n+p]) / (2 * apq)
				tan := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(tan*tan+1)
				s := tan * c
				a[p*n+p] -= tan * apq
				a[q*n+q] += tan * apq
				a[p*n+q], a[q*n+p] = 0, 0
				rp, rq := a[p*n:p*n+n], a[q*n:q*n+n]
				for k := range rp {
					if k == p || k == q {
						continue
					}
					akp, akq := rp[k], rq[k]
					rp[k], rq[k] = c*akp-s*akq, s*akp+c*akq
					a[k*n+p], a[k*n+q] = rp[k], rq[k]
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := range eig {
		eig[i] = a[i*n+i]
	}
	sort.Float64s(eig)
	return eig
}

// TestSpectralMatchesJacobi holds λ₂ to a dense eigensolver on graphs
// with no closed form: small balanced dragonflies and a hand-built
// multigraph with unequal degrees, parallel and one-way channels and a
// self-loop.
func TestSpectralMatchesJacobi(t *testing.T) {
	check := func(name string, c csr) {
		t.Helper()
		lambda, steps := lambda2(newLaplacian(c), lambdaSteps)
		want := jacobiEigenvalues(denseLaplacian(c))[1]
		if steps == 0 || relDiff(lambda, want) > 1e-9 {
			t.Errorf("%s: λ₂ %.15g after %d steps, Jacobi %.15g", name, lambda, steps, want)
		}
	}
	for h := 2; h <= 4; h++ {
		d, err := topo.NewDragonfly(0, 0, h)
		if err != nil {
			t.Fatal(err)
		}
		check(d.Name(), buildCSR(d.Graph()))
	}
	check("unbalanced multigraph", csrOf([][]int32{
		{1, 1, 1, 2}, {0, 3}, {0, 3, 4, 2}, {1, 2, 5, 5}, {2, 6, 4}, {3, 6}, {4, 0}, {6, 5, 0},
	}))
}

// powerSteps is the cap the power iteration ran under.
const powerSteps = 2000

// TestSpectralBelowPower compares Lanczos with the power iteration it
// replaced, on the ten flatbench analytic_points and the balanced
// dragonflies up to h=8 (the largest the power iteration converged on).
// The power quotient stopped once it moved by 1e-9 relative per step, so
// its λ₂ sits slightly above the true value: Lanczos must come out at or
// below it and within 2e-6 relative. Under -short the two Slim Flies
// above q=29 are skipped.
func TestSpectralBelowPower(t *testing.T) {
	type point struct {
		name  string
		large bool // skipped under -short
		build func() (topo.Topology, error)
	}
	cases := []point{
		{"slimfly q=29", false, func() (topo.Topology, error) { return topo.NewSlimFly(29, 0) }},
		{"slimfly q=37", true, func() (topo.Topology, error) { return topo.NewSlimFly(37, 0) }},
		{"slimfly q=43", true, func() (topo.Topology, error) { return topo.NewSlimFly(43, 0) }},
		{"flatfly 32-ary 3-flat", false, func() (topo.Topology, error) { return topo.NewFlatFly(32, 3) }},
		{"flatfly 64-ary 2-flat", false, func() (topo.Topology, error) { return topo.NewFlatFly(64, 2) }},
		{"flatfly 16-ary 4-flat", false, func() (topo.Topology, error) { return topo.NewFlatFly(16, 4) }},
		{"foldedclos 4096 radix 32", false, func() (topo.Topology, error) { return topo.TaperedClosForNodes(4096, 32) }},
		{"slimfly q=19", false, func() (topo.Topology, error) { return topo.NewSlimFly(19, 0) }},
	}
	for h := 2; h <= 8; h++ {
		cases = append(cases, point{fmt.Sprintf("dragonfly h=%d", h), false,
			func() (topo.Topology, error) { return topo.NewDragonfly(0, 0, h) }})
	}
	for _, tc := range cases {
		if tc.large && testing.Short() {
			continue
		}
		l, lambda, steps := lanczosOf(t, tc.name, tc.build)
		_, ray, conv := lambdaRun(l.apply, len(l.diag), powerSteps)
		if conv == 0 {
			t.Fatalf("%s: the power iteration did not converge within %d steps", tc.name, powerSteps)
		}
		power := l.shift - ray
		if lambda > power*(1+1e-12) || relDiff(lambda, power) > 2e-6 {
			t.Errorf("%s: Lanczos λ₂ %.15g (%d steps), power %.15g (%d steps)", tc.name, lambda, steps, power, conv)
		}
	}
}

// TestAnalyticLambdaCap pins the step-cap rule of the λ₂ iteration. The
// balanced dragonflies with h=8 and h=9 — the last the power iteration
// converged on within its 2,000 steps and the first it did not — converge
// in 50 and 57 Lanczos steps and keep their bounds. A cap below h=8's step
// count returns 0, which spectralBisectionLower reports as "no bound":
// an unconverged value would sit above λ₂.
func TestAnalyticLambdaCap(t *testing.T) {
	for _, tc := range []struct {
		h     int
		steps int
		lower float64
	}{{8, 50, 4918.32547611103}, {9, 57, 7838.115678321675}} {
		d, err := topo.NewDragonfly(0, 0, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := analyzeTopology(d)
		if err != nil {
			t.Fatal(err)
		}
		if m.BisectionLowerChannels != tc.lower {
			t.Errorf("dragonfly h=%d: bisection lower %v, want %v", tc.h, m.BisectionLowerChannels, tc.lower)
		}
		if m.BisectionUpperChannels <= 0 {
			t.Errorf("dragonfly h=%d: bisection upper %v, want > 0", tc.h, m.BisectionUpperChannels)
		}
		l := newLaplacian(buildCSR(d.Graph()))
		if _, steps := lambda2(l, lambdaSteps); steps != tc.steps {
			t.Errorf("dragonfly h=%d: λ₂ converged in %d steps, want %d", tc.h, steps, tc.steps)
		}
		if lambda, steps := lambda2(l, tc.steps-1); lambda != 0 || steps != 0 {
			t.Errorf("dragonfly h=%d capped at %d steps: λ₂ %v after %d steps, want 0 (no bound)", tc.h, tc.steps-1, lambda, steps)
		}
	}
}
