// Package spec is the one declarative description of "a network and its
// routing" (Net) and of "a workload" (Workload) that every evaluator
// builds from. The front ends — sweep.Job, nocsvc.OpenParams, the
// flatsim and flattopo flags — keep their own field names, wire formats
// and hashes, and convert to these values; the family table below is the
// only place a topology or routing constructor is called by name.
package spec

import (
	"cmp"
	"fmt"
	"math"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// Net names a network and its routing algorithm. Each family reads only
// its own parameters (see the table), so front ends with a flat
// parameter set can copy theirs across unchanged.
type Net struct {
	// Family is a family name from the table: "flatfly", "butterfly",
	// "foldedclos", "hypercube", "slimfly", "dragonfly", "torus", "ghc".
	Family string
	// K and N are the ary and the stage/dimension count (flatfly,
	// butterfly, torus; N alone for hypercube; K alone for ghc and as
	// terminals per leaf for foldedclos).
	K, N int
	// Uplinks, Leaves and Middles complete a folded Clos; TaperedClos
	// derives them for the paper's tapered convention.
	Uplinks, Leaves, Middles int
	// Q is the Slim Fly field size; A and H the dragonfly routers per
	// group and global channels per router; P the terminals per router of
	// both. 0 selects each constructor's balanced default for A and P.
	Q, A, H, P int
	// ChannelLatency and Multiplicity are the flattened-butterfly channel
	// latency in cycles and parallel channels per link (0 means 1).
	ChannelLatency, Multiplicity int
	// Alg names the routing algorithm in the family's vocabulary; ""
	// selects the family's default.
	Alg string
}

// family is one row of the table: how to construct the topology, how to
// construct a routing algorithm on it by name, how many terminals form
// one group for the group traffic patterns, and how the compact Flags
// vocabulary maps onto Net.
type family struct {
	name       string // Net.Family, sweep.Job.Net and the nocd wire name
	short      string // the flatsim / flattopo -topo value
	defaultAlg string
	topology   func(Net) (topo.Topology, error)
	algorithm  func(name string, t topo.Topology) (sim.Algorithm, error)
	conc       func(t topo.Topology) int
	fromFlags  func(Flags) (Net, error)
}

// row builds a table row from constructors typed on the family's own
// topology type; the closures it returns only ever see a topology the
// same row constructed.
func row[T topo.Topology](name, short, defaultAlg string,
	topology func(Net) (T, error),
	algorithm func(string, T) (sim.Algorithm, error),
	conc func(T) int,
	fromFlags func(Flags) (Net, error),
) family {
	return family{
		name: name, short: short, defaultAlg: defaultAlg,
		topology: func(n Net) (topo.Topology, error) {
			t, err := topology(n)
			if err != nil {
				return nil, err // not t: a typed nil would be a non-nil Topology
			}
			return t, nil
		},
		algorithm: func(alg string, t topo.Topology) (sim.Algorithm, error) { return algorithm(alg, t.(T)) },
		conc:      func(t topo.Topology) int { return conc(t.(T)) },
		fromFlags: fromFlags,
	}
}

// only adapts the constructor of a family's single routing algorithm to
// the by-name signature, rejecting every other name.
func only[T any, A sim.Algorithm](name string, mk func(T) A) func(string, T) (sim.Algorithm, error) {
	return func(alg string, t T) (sim.Algorithm, error) {
		if alg != name {
			return nil, fmt.Errorf("the only algorithm is %q, not %q", name, alg)
		}
		return mk(t), nil
	}
}

func one[T any](T) int { return 1 }

// families is the table.
var families = []family{
	row("flatfly", "ff", "min",
		func(n Net) (*topo.FlatFly, error) {
			var opts []topo.FlatFlyOption
			if n.ChannelLatency != 0 {
				opts = append(opts, topo.WithChannelLatency(n.ChannelLatency))
			}
			if n.Multiplicity != 0 {
				opts = append(opts, topo.WithMultiplicity(n.Multiplicity))
			}
			return topo.NewFlatFly(n.K, n.N, opts...)
		},
		routing.NewFlatFlyAlgorithm,
		func(f *topo.FlatFly) int { return f.K },
		func(f Flags) (Net, error) { return Net{K: f.K, N: f.N, Alg: f.Alg}, nil }),
	row("butterfly", "butterfly", "destination",
		func(n Net) (*topo.Butterfly, error) { return topo.NewButterfly(n.K, n.N) },
		only("destination", routing.NewButterflyDest),
		func(b *topo.Butterfly) int { return b.K },
		func(f Flags) (Net, error) { return Net{K: f.K, N: f.N}, nil }),
	row("foldedclos", "clos", "adaptive sequential",
		func(n Net) (*topo.FoldedClos, error) { return topo.NewFoldedClos(n.K, n.Uplinks, n.Leaves, n.Middles) },
		only("adaptive sequential", routing.NewFoldedClosAdaptive),
		func(f *topo.FoldedClos) int { return f.Terminals },
		func(f Flags) (Net, error) { return TaperedClos(f.K, f.N, f.Taper) }),
	row("hypercube", "hypercube", "e-cube",
		func(n Net) (*topo.Hypercube, error) { return topo.NewHypercube(n.N) },
		only("e-cube", routing.NewECube),
		one[*topo.Hypercube],
		func(f Flags) (Net, error) { return Net{N: f.Dims}, nil }),
	row("slimfly", "sf", "min",
		func(n Net) (*topo.SlimFly, error) { return topo.NewSlimFly(n.Q, n.P) },
		routing.NewSlimFlyAlgorithm,
		func(s *topo.SlimFly) int { return s.P },
		func(f Flags) (Net, error) { return Net{Q: f.Q, P: f.P, Alg: f.Alg}, nil }),
	row("dragonfly", "df", "min",
		func(n Net) (*topo.Dragonfly, error) { return topo.NewDragonfly(n.P, n.A, n.H) },
		routing.NewDragonflyAlgorithm,
		// One group of terminals is the unit, which is what makes the
		// worst-case pattern the dragonfly adversary.
		func(d *topo.Dragonfly) int { return d.A * d.P },
		func(f Flags) (Net, error) { return Net{H: f.GH, A: f.GA, P: f.P, Alg: f.Alg}, nil }),
	row("torus", "torus", "torus DOR",
		func(n Net) (*topo.Torus, error) { return topo.NewTorus(n.K, n.N) },
		only("torus DOR", routing.NewTorusDOR),
		one[*topo.Torus],
		func(f Flags) (Net, error) { return Net{K: f.K, N: f.N}, nil }),
	row("ghc", "ghc", "GHC min-adaptive",
		func(n Net) (*topo.GHC, error) { return topo.NewGHC([]int{n.K, n.K}) },
		only("GHC min-adaptive", routing.NewGHCMinAdaptive),
		one[*topo.GHC],
		func(f Flags) (Net, error) { return Net{K: f.K}, nil }),
}

// lookup resolves a family by name or -topo short name.
func lookup(name string) (*family, error) {
	for i := range families {
		if f := &families[i]; name == f.name || name == f.short {
			return f, nil
		}
	}
	return nil, fmt.Errorf("spec: unknown network family %q", name)
}

// Topology constructs just the network's topology — all the
// graph-analytic evaluators need, so Alg may be anything.
func (n Net) Topology() (topo.Topology, error) {
	f, err := lookup(n.Family)
	if err != nil {
		return nil, err
	}
	return f.topology(n)
}

// Build constructs the topology, the routing algorithm on it and the
// family's concentration: the number of consecutive terminals that form
// one group for the group traffic patterns. Constructor errors pass
// through unwrapped, so *topo.ParamError stays matchable.
func (n Net) Build() (topo.Topology, sim.Algorithm, int, error) {
	f, err := lookup(n.Family)
	if err != nil {
		return nil, nil, 0, err
	}
	t, err := f.topology(n)
	if err != nil {
		return nil, nil, 0, err
	}
	alg, err := f.algorithm(cmp.Or(n.Alg, f.defaultAlg), t)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("spec: %s: %w", f.name, err)
	}
	return t, alg, f.conc(t), nil
}

// Flags is the compact vocabulary the command lines and the nocd wire
// share: a family (by name or -topo short name) plus the handful of
// integers each family derives its parameters from.
type Flags struct {
	Topo   string
	K, N   int
	Dims   int // hypercube dimensions
	Taper  int // folded-Clos terminals:uplinks ratio
	Q      int // Slim Fly field size
	GH, GA int // dragonfly global channels per router, routers per group
	P      int // sf/df terminals per router
	// Alg is copied for the families with more than one algorithm and
	// dropped for the rest, so one -alg default serves every -topo.
	Alg string
}

// Net converts the flags to the network they name.
func (f Flags) Net() (Net, error) {
	fam, err := lookup(f.Topo)
	if err != nil {
		return Net{}, err
	}
	n, err := fam.fromFlags(f)
	n.Family = fam.name
	return n, err
}

// TaperedClos is the paper's §3.3 folded-Clos convention: k^n terminals,
// k per leaf, k/taper uplinks per leaf (taper 2 holds bisection equal to
// the k-ary n-flat), and middle routers of radix 2k — as many as the
// uplinks fill, rounded down to a count that divides the uplinks.
func TaperedClos(k, n, taper int) (Net, error) {
	if k < 1 || n < 1 || taper < 1 {
		return Net{}, fmt.Errorf("spec: tapered folded Clos needs k, n, taper >= 1, got k=%d n=%d taper=%d", k, n, taper)
	}
	terminals := 1
	for i := 0; i < n; i++ {
		if terminals > math.MaxInt/k {
			return Net{}, fmt.Errorf("spec: tapered folded Clos k=%d n=%d overflows the terminal count", k, n)
		}
		terminals *= k
	}
	leaves := terminals / k
	uplinks := k / taper
	// No divisor of uplinks exceeds it, so the countdown starts there at
	// the latest: at most k steps however many leaves there are.
	middles := max(1, min(leaves*uplinks/(2*k), uplinks))
	for uplinks%middles != 0 {
		middles--
	}
	return Net{Family: "foldedclos", K: k, Uplinks: uplinks, Leaves: leaves, Middles: middles}, nil
}

// Workload names a traffic workload: a registry pattern with its
// parameters and the arrival process.
type Workload struct {
	// Pattern is an internal/traffic registry name or alias.
	Pattern string
	// Conc is the group size for the group patterns; 0 means the
	// network's own concentration.
	Conc int
	// Hot and HotFraction parameterize hotspot and incast.
	Hot         []int
	HotFraction float64
	// BurstPeak > 0 selects on/off arrivals bursting at that rate with
	// mean burst length BurstLen cycles; 0 keeps Bernoulli arrivals.
	BurstPeak, BurstLen float64
}

// Build constructs the workload for a network of nodes terminals whose
// concentration is conc: the destination pattern on its own (batch and
// closed-loop runs inject it themselves) and the full source. An unknown
// pattern name surfaces as a *traffic.UnknownPatternError.
func (w Workload) Build(nodes, conc int, seed uint64) (traffic.Pattern, traffic.Source, error) {
	hot := make([]topo.NodeID, len(w.Hot))
	for i, h := range w.Hot {
		hot[i] = topo.NodeID(h)
	}
	pat, err := traffic.Build(w.Pattern, traffic.BuildCtx{
		Nodes: nodes, Seed: seed, Concentration: cmp.Or(w.Conc, conc), HotSet: hot, HotFraction: w.HotFraction,
	})
	if err != nil {
		return nil, nil, err
	}
	if w.BurstPeak > 0 {
		src, err := traffic.NewOnOff(pat, w.BurstPeak, w.BurstLen)
		if err != nil {
			return nil, nil, err
		}
		return pat, src, nil
	}
	return pat, traffic.NewBernoulli(pat), nil
}
