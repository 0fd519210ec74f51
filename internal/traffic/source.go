package traffic

import (
	"fmt"

	"flatnet/internal/rng"
	"flatnet/internal/topo"
)

// Source is a full workload: it owns both *when* a node injects (the
// arrival process) and *where* it sends (the destination process). The
// simulator calls Arrivals once per node per cycle, in node-index order,
// between Steps; Dest is called at packet materialization time, inside
// Step. Both receive the
// node's own RNG stream, so a Source must not keep RNG state of its own —
// any other per-node state (e.g. the on/off burst state) lives in the
// Source and is serialised through State/SetState so warmed networks can
// snapshot and restore it.
type Source interface {
	Name() string
	// Arrivals returns how many packets node src injects this cycle at
	// offered load `load` (flits per node per cycle) with pktFlits flits
	// per packet. It must draw from r deterministically — same state,
	// same draws.
	Arrivals(src topo.NodeID, load float64, pktFlits int, r *rng.Source) int
	// Dest returns the destination for a packet injected at src.
	Dest(src topo.NodeID, r *rng.Source) topo.NodeID
	// State serialises the source's mutable workload state (not its
	// configuration). Sources with no mutable state return (nil, nil).
	// An error here makes the owning network refuse to snapshot.
	State() ([]byte, error)
	// SetState restores state captured by State. SetState(nil) resets
	// the source to its initial state.
	SetState(b []byte) error
}

// LoadValidator is implemented by sources whose arrival process
// constrains the offered load (e.g. OnOff requires load <= peak). The
// simulator checks it once per Generate call, before any draws.
type LoadValidator interface {
	ValidateLoad(load float64) error
}

// Stateless is an embeddable helper providing the no-op State/SetState
// pair for sources whose arrival process keeps no mutable state.
type Stateless struct{}

// State implements Source.
func (Stateless) State() ([]byte, error) { return nil, nil }

// SetState implements Source.
func (Stateless) SetState(b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("traffic: stateless source given %d bytes of state", len(b))
	}
	return nil
}

// Bernoulli wraps a destination Pattern with the memoryless Bernoulli
// arrival process the paper's open-loop evaluation uses: each node
// independently injects a packet with probability load/pktFlits every
// cycle. It draws exactly one Bernoulli variate per node per cycle — the
// stream the golden corpus and every pinned result were recorded on.
type Bernoulli struct {
	Stateless
	Pattern Pattern
}

// NewBernoulli wraps pat in a Bernoulli arrival process.
func NewBernoulli(pat Pattern) *Bernoulli { return &Bernoulli{Pattern: pat} }

// Name implements Source. A Bernoulli-wrapped pattern keeps the bare
// pattern name: it is the default arrival process.
func (s *Bernoulli) Name() string { return s.Pattern.Name() }

// Arrivals implements Source.
func (s *Bernoulli) Arrivals(_ topo.NodeID, load float64, pktFlits int, r *rng.Source) int {
	if r.Bernoulli(load / float64(pktFlits)) {
		return 1
	}
	return 0
}

// Dest implements Source.
func (s *Bernoulli) Dest(src topo.NodeID, r *rng.Source) topo.NodeID {
	return s.Pattern.Dest(src, r)
}

// OnOff is the bursty MMPP-style workload: a two-state Markov modulated
// Bernoulli process. Each node alternates between an ON state injecting
// at Peak flits/node/cycle and a silent OFF state, with mean burst
// length AvgBurst cycles, such that the long-run average offered load is
// the requested load. The per-node ON/OFF bits are the source's mutable
// state and serialise through State/SetState.
type OnOff struct {
	Pattern  Pattern
	Peak     float64 // injection rate while ON, flits/node/cycle, in (0,1]
	AvgBurst float64 // mean ON-burst length in cycles, >= 1

	on []bool // per-node modulation state, grown on first use

	// Per-(load, pktFlits) probability cache: the derived transition and
	// arrival probabilities are pure functions of the call parameters, so
	// recompute only when they change.
	cLoad    float64
	cFlits   int
	cValid   bool
	exitOn   float64
	enterOn  float64
	pArrival float64
}

// NewOnOff builds a bursty on/off source over pat. peak is the ON-state
// injection rate in (0,1]; avgBurst the mean burst length in cycles.
func NewOnOff(pat Pattern, peak, avgBurst float64) (*OnOff, error) {
	if peak <= 0 || peak > 1 {
		return nil, fmt.Errorf("traffic: on/off peak rate %v out of (0,1]", peak)
	}
	if avgBurst < 1 {
		return nil, fmt.Errorf("traffic: on/off average burst length %v must be >= 1 cycle", avgBurst)
	}
	return &OnOff{Pattern: pat, Peak: peak, AvgBurst: avgBurst}, nil
}

// Name implements Source.
func (s *OnOff) Name() string { return "burst(" + s.Pattern.Name() + ")" }

// ValidateLoad implements LoadValidator: the average load cannot exceed
// the ON-state peak rate.
func (s *OnOff) ValidateLoad(load float64) error {
	if load < 0 || load > s.Peak {
		return fmt.Errorf("traffic: on/off load %v out of [0, peak=%v]", load, s.Peak)
	}
	return nil
}

// Arrivals implements Source. The draw order per node is: one transition
// variate (exit if ON, enter if OFF — a node that exits stays silent
// that cycle, a node that enters may inject immediately), then one
// arrival variate while ON.
func (s *OnOff) Arrivals(src topo.NodeID, load float64, pktFlits int, r *rng.Source) int {
	i := int(src)
	for len(s.on) <= i {
		s.on = append(s.on, false)
	}
	if !s.cValid || load != s.cLoad || pktFlits != s.cFlits {
		pOn := load / s.Peak // stationary probability of the ON state
		s.exitOn = 1 / s.AvgBurst
		if pOn < 1 {
			s.enterOn = s.exitOn * pOn / (1 - pOn)
			if s.enterOn > 1 {
				s.enterOn = 1
			}
		} else {
			s.enterOn = 1
		}
		s.pArrival = s.Peak / float64(pktFlits)
		s.cLoad, s.cFlits, s.cValid = load, pktFlits, true
	}
	if s.on[i] {
		if r.Bernoulli(s.exitOn) {
			s.on[i] = false
		}
	} else if r.Bernoulli(s.enterOn) {
		s.on[i] = true
	}
	if s.on[i] && r.Bernoulli(s.pArrival) {
		return 1
	}
	return 0
}

// Dest implements Source.
func (s *OnOff) Dest(src topo.NodeID, r *rng.Source) topo.NodeID {
	return s.Pattern.Dest(src, r)
}

// State implements Source: one byte per node, 0 = OFF, 1 = ON.
func (s *OnOff) State() ([]byte, error) {
	out := make([]byte, len(s.on))
	for i, b := range s.on {
		if b {
			out[i] = 1
		}
	}
	return out, nil
}

// SetState implements Source. nil resets every node to OFF.
func (s *OnOff) SetState(b []byte) error {
	if b == nil {
		for i := range s.on {
			s.on[i] = false
		}
		return nil
	}
	on := make([]bool, len(b))
	for i, v := range b {
		switch v {
		case 0:
		case 1:
			on[i] = true
		default:
			return fmt.Errorf("traffic: on/off state byte %d is %d, want 0 or 1", i, v)
		}
	}
	s.on = on
	return nil
}
