package topo

// gf is a small finite field GF(p^m), built by table construction: field
// elements are 0..q-1, encoded as base-p digit vectors of polynomial
// coefficients, with multiplication reduced by a brute-force-found monic
// irreducible polynomial of degree m. Slim Fly instances use q up to a
// few hundred, so full exp/log tables are cheap and make the MMS
// generator-set construction direct.
type gf struct {
	p, m, q int
	// exp[i] = xi^i for a primitive element xi; length 2(q-1) so products
	// of logs never need a modulo.
	exp []int
	// log[e] is the discrete log of e in [1, q); log[0] is unused.
	log []int
}

// PrimePower factors q as p^m with p prime, or reports failure.
func PrimePower(q int) (p, m int, ok bool) {
	if q < 2 {
		return 0, 0, false
	}
	for p = 2; p*p <= q; p++ {
		if q%p != 0 {
			continue
		}
		m = 0
		for n := q; n > 1; n /= p {
			if n%p != 0 {
				return 0, 0, false
			}
			m++
		}
		return p, m, true
	}
	return q, 1, true // q itself is prime
}

// newGF constructs GF(q), or reports false when q is not a prime power.
func newGF(q int) (*gf, bool) {
	p, m, ok := PrimePower(q)
	if !ok {
		return nil, false
	}
	f := &gf{p: p, m: m, q: q}
	irr := f.findIrreducible()
	// Build the full multiplication structure from a primitive element.
	mul := func(a, b int) int { return f.polyMulMod(a, b, irr) }
	for g := 1; g < q; g++ {
		if f.order(g, mul) == q-1 {
			f.buildTables(g, mul)
			return f, true
		}
	}
	return nil, false // unreachable: every finite field has a generator
}

// add returns a+b in the field: digit-wise addition mod p.
func (f *gf) add(a, b int) int {
	if f.m == 1 {
		return (a + b) % f.p
	}
	r, shift := 0, 1
	for i := 0; i < f.m; i++ {
		r += ((a%f.p + b%f.p) % f.p) * shift
		a /= f.p
		b /= f.p
		shift *= f.p
	}
	return r
}

// neg returns -a in the field.
func (f *gf) neg(a int) int {
	if f.m == 1 {
		return (f.p - a) % f.p
	}
	r, shift := 0, 1
	for i := 0; i < f.m; i++ {
		r += ((f.p - a%f.p) % f.p) * shift
		a /= f.p
		shift *= f.p
	}
	return r
}

// mul returns a*b via the exp/log tables.
func (f *gf) mul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// xi returns the primitive element's i-th power.
func (f *gf) xi(i int) int { return f.exp[i%(f.q-1)] }

// polyMulMod multiplies the coefficient-encoded polynomials a and b and
// reduces by the monic irreducible irr (encoded with its degree-m leading
// coefficient dropped: irr holds the low m coefficients).
func (f *gf) polyMulMod(a, b, irr int) int {
	if f.m == 1 {
		return (a * b) % f.p
	}
	// Expand to coefficient slices.
	ac := f.coeffs(a)
	bc := f.coeffs(b)
	prod := make([]int, 2*f.m-1)
	for i, av := range ac {
		if av == 0 {
			continue
		}
		for j, bv := range bc {
			prod[i+j] = (prod[i+j] + av*bv) % f.p
		}
	}
	ic := f.coeffs(irr)
	// Reduce: x^m == -irr (mod the monic polynomial x^m + irr).
	for d := 2*f.m - 2; d >= f.m; d-- {
		c := prod[d]
		if c == 0 {
			continue
		}
		prod[d] = 0
		for j, iv := range ic {
			prod[d-f.m+j] = (prod[d-f.m+j] + c*(f.p-iv)) % f.p
		}
	}
	r, shift := 0, 1
	for i := 0; i < f.m; i++ {
		r += prod[i] * shift
		shift *= f.p
	}
	return r
}

// coeffs decodes an element into its m base-p digits.
func (f *gf) coeffs(a int) []int {
	c := make([]int, f.m)
	for i := 0; i < f.m; i++ {
		c[i] = a % f.p
		a /= f.p
	}
	return c
}

// findIrreducible brute-force searches for a monic irreducible polynomial
// x^m + (low coefficients) over F_p, returning the low-coefficient
// encoding. Irreducibility is tested by checking the polynomial has no
// root-free factorization witness: for the small m used here, trial
// multiplication of every pair of lower-degree monic polynomials.
func (f *gf) findIrreducible() int {
	if f.m == 1 {
		return 0
	}
	qm := 1
	for i := 0; i < f.m; i++ {
		qm *= f.p
	}
	for low := 1; low < qm; low++ {
		if f.irreducible(low, qm) {
			return low
		}
	}
	panic("topo: no irreducible polynomial found") // unreachable for prime p
}

// irreducible reports whether x^m + low is irreducible over F_p, by
// testing divisibility by every monic polynomial of degree 1..m/2.
func (f *gf) irreducible(low, qm int) bool {
	full := append(f.coeffs(low), 1) // degree m, monic
	for d := 1; 2*d <= f.m; d++ {
		divSize := 1
		for i := 0; i < d; i++ {
			divSize *= f.p
		}
		for dl := 0; dl < divSize; dl++ {
			div := make([]int, d+1)
			v := dl
			for i := 0; i < d; i++ {
				div[i] = v % f.p
				v /= f.p
			}
			div[d] = 1 // monic
			if f.polyDivides(div, full) {
				return false
			}
		}
	}
	return true
}

// polyDivides reports whether div divides full over F_p (both monic).
func (f *gf) polyDivides(div, full []int) bool {
	rem := append([]int(nil), full...)
	for len(rem) >= len(div) {
		lead := rem[len(rem)-1]
		if lead != 0 {
			off := len(rem) - len(div)
			for i, dv := range div {
				rem[off+i] = ((rem[off+i]-lead*dv)%f.p + f.p*f.p) % f.p
			}
		}
		rem = rem[:len(rem)-1]
	}
	for _, c := range rem {
		if c != 0 {
			return false
		}
	}
	return true
}

// order returns the multiplicative order of g under mul.
func (f *gf) order(g int, mul func(a, b int) int) int {
	v, n := g, 1
	for v != 1 {
		v = mul(v, g)
		n++
		if n > f.q {
			return 0 // g is not invertible (cannot happen for g != 0)
		}
	}
	return n
}

// buildTables fills exp/log from the primitive element g.
func (f *gf) buildTables(g int, mul func(a, b int) int) {
	f.exp = make([]int, 2*(f.q-1))
	f.log = make([]int, f.q)
	v := 1
	for i := 0; i < f.q-1; i++ {
		f.exp[i] = v
		f.exp[i+f.q-1] = v
		f.log[v] = i
		v = mul(v, g)
	}
}
