// Package sim is a cycle-accurate flit-level simulator for
// interconnection networks, in the style the paper describes in §3.2:
// single-cycle input-queued virtual-channel routers with credit-based flow
// control, Bernoulli packet injection, a warm-up / measurement / drain
// methodology, and batch experiments for studying transient load
// imbalance.
//
// Packets are Config.PacketSize flits long: one by default (the paper's
// configuration; §3.2 note 2 states packet size does not change the
// comparisons), longer ones move by wormhole switching. Routers are given
// configurable switch speedup so that, as in the paper, the router itself
// is not the network bottleneck — channel bandwidth is.
package sim

import (
	"flatnet/internal/topo"
)

// Phase values used by the routing algorithms to track multi-phase routes.
// Their interpretation belongs to each algorithm; the simulator only
// stores them.
const (
	// PhaseNew marks a packet whose routing decision has not been made.
	PhaseNew int8 = iota
	// PhaseNonMinimal marks a packet in the first (misrouting/ascent)
	// phase of a non-minimal route.
	PhaseNonMinimal
	// PhaseMinimal marks a packet routing minimally to its destination
	// (either chosen minimal at the source, or past its intermediate).
	PhaseMinimal
)

// Packet is one packet traversing the network, Config.PacketSize flits
// long.
//
// The fields are ordered so the struct is exactly 64 bytes — one cache
// line, and one allocator size class, so packets never straddle lines
// (TestHotLayoutSizes guards it). Phase, Measured and Inter share a word;
// DimMask and xslot share another.
type Packet struct {
	ID  int64
	Src topo.NodeID
	Dst topo.NodeID

	// Routing state, owned by the routing algorithm.
	Phase    int8
	Measured bool   // injected during the measurement window
	Inter    int32  // intermediate router for two-phase routes; -1 when unset
	DimMask  uint32 // remaining-dimension bitmask for ascent-style routes

	// xslot is 1 + the packet's row in the slot table Network.xfers when
	// it carries a transfer (StartTransfer), 0 when it does not.
	xslot int32

	Hops int // inter-router channels traversed so far

	InjectCycle  int64 // cycle the packet arrived at its source queue
	NetworkCycle int64 // cycle the packet entered its source router's buffer
}

// reset clears a recycled packet.
func (p *Packet) reset() {
	*p = Packet{Inter: -1}
}

// OutRef identifies a routing decision: an output port and the virtual
// channel to use on it.
type OutRef struct {
	Port int
	VC   int
}

// Algorithm selects the next hop for each packet. Implementations live in
// internal/routing; they are constructed per topology instance.
type Algorithm interface {
	// Name identifies the algorithm, e.g. "UGAL-S".
	Name() string
	// NumVCs returns the number of virtual channels the algorithm needs on
	// every network channel.
	NumVCs() int
	// Sequential reports whether the router must use a sequential route
	// allocator (§3.1): inputs decide one at a time, each seeing the
	// queue-state updates of the decisions before it. A greedy allocator
	// lets all inputs decide against the same stale snapshot.
	Sequential() bool
	// Route picks the output port and VC for packet p, currently at the
	// head of an input buffer of view.Router(). It may mutate the packet's
	// routing-state fields (Phase, Inter, DimMask). The view is only valid
	// for the duration of the call and must not be retained.
	Route(view *RouterView, p *Packet) OutRef
}
