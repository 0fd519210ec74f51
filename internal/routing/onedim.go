package routing

import (
	"flatnet/internal/sim"
	"flatnet/internal/topo"
)

// OneDimUGAL routes the generalized single-dimension flattened butterfly
// (topo.OneDimFB, the Fig. 14(b) expanded-scalability variant): a
// complete router graph where minimal routing is a single hop and
// non-minimal routing detours through one intermediate router, chosen by
// UGAL-style queue comparison with sequential allocation. With
// minimalOnly it degenerates to pure minimal routing.
type OneDimUGAL struct {
	f           *topo.OneDimFB
	minimalOnly bool
}

// NewOneDimUGAL builds the adaptive router for a OneDimFB.
func NewOneDimUGAL(f *topo.OneDimFB) *OneDimUGAL { return &OneDimUGAL{f: f} }

// NewOneDimMinimal builds the minimal-only router for a OneDimFB.
func NewOneDimMinimal(f *topo.OneDimFB) *OneDimUGAL {
	return &OneDimUGAL{f: f, minimalOnly: true}
}

// Name implements sim.Algorithm.
func (a *OneDimUGAL) Name() string {
	if a.minimalOnly {
		return "1D MIN"
	}
	return "1D UGAL-S"
}

// NumVCs implements sim.Algorithm: VC 0 for the misroute hop, VC 1 for
// the final (minimal) hop.
func (a *OneDimUGAL) NumVCs() int { return 2 }

// Sequential implements sim.Algorithm.
func (a *OneDimUGAL) Sequential() bool { return !a.minimalOnly }

// Route implements sim.Algorithm.
func (a *OneDimUGAL) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	dst := a.f.RouterOf(p.Dst)
	if r == dst {
		return sim.OutRef{Port: int(p.Dst) % a.f.Concentration, VC: 0}
	}
	if a.minimalOnly || p.Phase != sim.PhaseNew {
		// Past the intermediate (or minimal-only): direct hop on VC 1.
		return sim.OutRef{Port: a.f.PortTo(dst), VC: 1}
	}
	// Source decision: minimal direct hop vs detour via a random
	// intermediate (UGAL comparison, queue x hops).
	b := topo.RouterID(view.RNG().Intn(a.f.Routers))
	qMin := view.QueueEstPort(a.f.PortTo(dst))
	if b == r || b == dst {
		p.Phase = sim.PhaseMinimal
		return sim.OutRef{Port: a.f.PortTo(dst), VC: 1}
	}
	qNM := view.QueueEstPort(a.f.PortTo(b))
	if qMin <= 2*qNM {
		p.Phase = sim.PhaseMinimal
		return sim.OutRef{Port: a.f.PortTo(dst), VC: 1}
	}
	p.Phase = sim.PhaseNonMinimal
	return sim.OutRef{Port: a.f.PortTo(b), VC: 0}
}
