package topo

import (
	"fmt"
	"slices"
	"testing"
)

// perm is a router permutation.
type perm func(RouterID) RouterID

// checkAutomorphism asserts that sigma maps every router's multiset of
// network neighbours in the built port tables onto its image's.
func checkAutomorphism(t *testing.T, g *Graph, name string, sigma perm) {
	t.Helper()
	peers := func(r RouterID, f perm) []RouterID {
		var ps []RouterID
		for _, out := range g.Routers[r].Out {
			if out.Kind == Network {
				ps = append(ps, f(RouterID(out.Peer)))
			}
		}
		slices.Sort(ps)
		return ps
	}
	id := func(r RouterID) RouterID { return r }
	for r := range g.Routers {
		a, b := peers(RouterID(r), sigma), peers(sigma(RouterID(r)), id)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: %s maps router %d's neighbours to %v, but router %d's are %v",
				g.Label, name, r, a, sigma(RouterID(r)), b)
		}
	}
}

// checkOrbits closes each representative under the generators and asserts
// that every orbit has exactly its declared size and that the orbits
// partition the routers.
func checkOrbits(t *testing.T, g *Graph, reps []RouterID, sizes []int, gens []perm) {
	t.Helper()
	orbit := make([]int, len(g.Routers))
	for i := range orbit {
		orbit[i] = -1
	}
	for i, rep := range reps {
		if orbit[rep] >= 0 {
			t.Fatalf("%s: representative %d lies in orbit %d", g.Label, rep, orbit[rep])
		}
		orbit[rep] = i
		queue := []RouterID{rep}
		for qi := 0; qi < len(queue); qi++ {
			for _, f := range gens {
				if w := f(queue[qi]); orbit[w] < 0 {
					orbit[w] = i
					queue = append(queue, w)
				} else if orbit[w] != i {
					t.Fatalf("%s: router %d in orbits %d and %d", g.Label, w, orbit[w], i)
				}
			}
		}
		if len(queue) != sizes[i] {
			t.Errorf("%s: orbit of router %d has %d routers, declared %d", g.Label, rep, len(queue), sizes[i])
		}
	}
	for r, o := range orbit {
		if o < 0 {
			t.Errorf("%s: router %d in no orbit", g.Label, r)
		}
	}
}

// TestSlimFlyOrbits applies the translations φ_{a,b} and the scalings ψ_μ
// to the built Slim Fly: each must preserve every neighbour set, and the
// three declared orbits must be exactly the orbits of the group they
// generate. The field sizes cover both residues of q mod 4 and prime
// powers.
func TestSlimFlyOrbits(t *testing.T) {
	for _, q := range []int{5, 7, 9, 11, 13, 25, 27} {
		s, err := NewSlimFly(q, 1)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		f, _ := newGF(q)
		split := func(r RouterID) (block, u, v int) { return int(r) / (q * q), int(r) / q % q, int(r) % q }
		translate := func(a, b int) perm {
			return func(r RouterID) RouterID {
				block, u, v := split(r)
				if block == 0 {
					return RouterID(s.routerID(0, f.add(u, a), f.add(v, b)))
				}
				return RouterID(s.routerID(1, u, f.add(f.add(v, b), f.neg(f.mul(u, a)))))
			}
		}
		scale := func(mu int) perm {
			inv := f.exp[(q-1-f.log[mu])%(q-1)]
			return func(r RouterID) RouterID {
				block, u, v := split(r)
				if block == 0 {
					return RouterID(s.routerID(0, f.mul(mu, u), v))
				}
				return RouterID(s.routerID(1, f.mul(u, inv), v))
			}
		}
		g := s.Graph()
		// The additive group of GF(p^m) is generated by the digit basis
		// 1, p, ..., p^(m-1); the multiplicative group by ξ.
		gens := []perm{scale(f.xi(1))}
		for e := 1; e < q; e *= f.p {
			gens = append(gens, translate(e, 0), translate(0, e))
			checkAutomorphism(t, g, fmt.Sprintf("φ_{%d,0}", e), translate(e, 0))
			checkAutomorphism(t, g, fmt.Sprintf("φ_{0,%d}", e), translate(0, e))
		}
		for mu := 1; mu < q; mu++ {
			checkAutomorphism(t, g, fmt.Sprintf("ψ_%d", mu), scale(mu))
		}
		reps, sizes := s.RouterOrbits()
		checkOrbits(t, g, reps, sizes, gens)
	}
}

// TestDragonflyOrbits applies the group rotation and the reflection
// (g, pos) → (-g, A-1-pos) to the built dragonfly: both must preserve
// every neighbour set, the reflection must carry global slot s to slot
// H-1-s, and the declared orbits must be exactly the orbits of the two.
func TestDragonflyOrbits(t *testing.T) {
	for _, tc := range []struct{ p, a, h int }{
		{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {0, 0, 4}, {2, 5, 2}, {1, 3, 3}, {2, 7, 3},
	} {
		d, err := NewDragonfly(tc.p, tc.a, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		rotate := func(r RouterID) RouterID { return d.Router((d.Group(r)+1)%d.Groups, d.Pos(r)) }
		reflect := func(r RouterID) RouterID {
			return d.Router((d.Groups-d.Group(r))%d.Groups, d.A-1-d.Pos(r))
		}
		g := d.Graph()
		checkAutomorphism(t, g, "rotation", rotate)
		checkAutomorphism(t, g, "reflection", reflect)
		for r := range g.Routers {
			for s := 0; s < d.H; s++ {
				peer := g.Routers[r].Out[d.GlobalPort(s)].Peer
				img := g.Routers[reflect(RouterID(r))].Out[d.GlobalPort(d.H-1-s)].Peer
				if reflect(RouterID(peer)) != RouterID(img) {
					t.Fatalf("%s: reflection sends router %d's slot %d to router %d, slot %d reaches %d",
						d.Name(), r, s, reflect(RouterID(peer)), d.H-1-s, img)
				}
			}
		}
		reps, sizes := d.RouterOrbits()
		if len(reps) != (d.A+1)/2 {
			t.Errorf("%s: %d orbits, want ⌈A/2⌉ = %d", d.Name(), len(reps), (d.A+1)/2)
		}
		checkOrbits(t, g, reps, sizes, []perm{rotate, reflect})
	}
}
