package sim

import (
	"fmt"
	"slices"

	"flatnet/internal/topo"
)

// Hooks is the network's one instrumentation surface: one callback per
// observable packet or router-pipeline event. Probes (AttachProbes),
// the flit tracer (AttachTracer), the sanitizer (internal/check), trace
// recorders (RecordTrace) and the run harnesses' accounting are each a
// hook set, so an observer sees every packet, flit, credit, bid and
// virtual-channel transition without the simulator importing it.
//
// Any number of sets may be attached; each site calls the sets in attach
// order, skipping nil callbacks, so a set implements any subset and
// detaching one leaves the others running. A network with no set
// attached pays one empty-list check per site (BenchmarkTelemetryOff).
// Callbacks run inside Step, must not retain a packet and only observe,
// except that Deliver may start transfers (RunClosedLoop).
type Hooks struct {
	// Materialize fires when a packet arrival becomes a packet at its
	// source: its ID assigned and its destination drawn.
	Materialize func(p *Packet)
	// Deliver fires when a packet's tail flit is delivered, before the
	// packet is recycled.
	Deliver func(p *Packet, cycle int64)
	// Inject fires when a flit enters its source router's terminal input
	// buffer. r/port identify the injection buffer.
	Inject func(p *Packet, r topo.RouterID, port int, tail bool)
	// Route fires when a packet at the head of an input VC receives a
	// routing decision (port, vc) at router r.
	Route func(p *Packet, r topo.RouterID, port, vc int)
	// Stall fires when a routed flit at the head of an input VC cannot bid
	// for its network output (r, port, vc) this cycle.
	Stall func(p *Packet, r topo.RouterID, port, vc int, cause StallCause)
	// Arbitrate fires once per cycle for each output (r, port) that had
	// bids, after switch allocation: granted of its requested bids won.
	Arbitrate func(r topo.RouterID, port, granted, requested int)
	// Traverse fires when a flit crosses the crossbar onto output
	// (r, port, vc); head and tail mark its packet's head and tail flits.
	// For a network output, credits is the output VC's credit count after
	// the flit spent one, and prev is the VC's owner before the traversal:
	// nil for a head flit unless the allocator double-granted. For an
	// ejection output both are zero.
	Traverse func(p, prev *Packet, r topo.RouterID, port, vc, credits int, head, tail bool)
	// CreditReturn fires when a credit arrives back at output
	// (r, port, vc); after is the post-increment credit count.
	CreditReturn func(r topo.RouterID, port, vc, after int)
	// Eject fires for every flit leaving an ejection channel, before the
	// packet is recycled. r/port identify the ejection channel.
	Eject func(p *Packet, r topo.RouterID, port int, tail bool)
	// EndCycle fires at the end of every Step, after switch allocation.
	EndCycle func()
}

// StallCause says why a routed flit could not bid (Hooks.Stall).
type StallCause uint8

const (
	// StallCredit: the downstream VC has no free buffer slot.
	StallCredit StallCause = iota
	// StallVC: a head flit's downstream VC is still owned by another
	// packet (wormhole blocking).
	StallVC
)

// AttachHooks adds h to the network's hook sets, after those already
// attached, and returns the func that detaches it again (idempotent).
// A set with a Materialize or Deliver callback joins the packet list,
// walked only at those two sites; any other set, and one that also has
// a pipeline callback, joins the pipeline list.
func (n *Network) AttachHooks(h *Hooks) (detach func()) {
	var lists []*[]*Hooks
	if h.Materialize != nil || h.Deliver != nil {
		lists = append(lists, &n.packetHooks)
	}
	if lists == nil || h.Inject != nil || h.Route != nil || h.Stall != nil || h.Arbitrate != nil ||
		h.Traverse != nil || h.CreditReturn != nil || h.Eject != nil || h.EndCycle != nil {
		lists = append(lists, &n.hooks)
	}
	for _, l := range lists {
		*l = append((*l)[:len(*l):len(*l)], h)
	}
	attached := true
	return func() {
		if !attached {
			return
		}
		attached = false
		// A fresh slice, so a site walking the old list is undisturbed.
		for _, l := range lists {
			i := slices.Index(*l, h)
			*l = slices.Delete(slices.Clone(*l), i, i+1)
		}
	}
}

// Graph returns the channel graph the network simulates.
func (n *Network) Graph() *topo.Graph { return n.g }

// Quiescent reports whether the simulation holds no packet state at all:
// no flits buffered or in flight, no source backlog, and no packet
// mid-injection. A quiescent network must have every credit home and
// every virtual channel free — the end-of-run invariant Finalize checks.
func (n *Network) Quiescent() bool {
	for i := range n.sources {
		if n.sources[i].cur != 0 || !n.sources[i].empty() {
			return false
		}
	}
	buffered, inFlight := n.Inventory()
	return buffered+inFlight == 0
}

// ChannelAudit is the credit-conservation snapshot of one network
// channel's virtual channel, identified by its upstream (sending) end.
// At every instant the VC's buffer slots are fully accounted for:
//
//	Credits + Buffered + FlitsInFlight + CreditsInFlight == Depth
//
// Credits sit at the upstream router, buffered flits at the downstream
// input VC, and the two in-flight terms are flits on the forward channel
// and credits on the reverse channel (both live in the event calendar).
type ChannelAudit struct {
	Router          topo.RouterID // upstream router
	Port            int           // upstream output port
	VC              int
	Depth           int // per-VC buffer depth: the credit pool size
	Credits         int // credits held at the upstream output
	Buffered        int // flits in the downstream input VC buffer
	FlitsInFlight   int // flits on the forward channel (scheduled arrivals)
	CreditsInFlight int // credits on the reverse channel
	// Owner is the packet holding the VC (its wormhole owner, from head
	// to tail traversal), nil when the VC is free. Do not retain it.
	Owner *Packet
}

// Outstanding sums every slot the audit can see; it equals Depth when
// the channel's credit loop is intact.
func (a ChannelAudit) Outstanding() int {
	return a.Credits + a.Buffered + a.FlitsInFlight + a.CreditsInFlight
}

// AuditChannels walks every network channel VC and reports its credit
// accounting. It is O(channels + calendar) and intended for sanitizer
// strides and end-of-run checks, not the per-cycle hot path.
func (n *Network) AuditChannels(visit func(ChannelAudit)) {
	flits := map[int64]int{}   // (downstream router, input VC index) -> count
	credits := map[int32]int{} // network-wide output VC index -> count
	for i := range n.cal {
		for _, ev := range n.cal[i].flits {
			flits[int64(ev.router)<<32|int64(ev.ivc)]++
		}
		for _, ev := range n.cal[i].credits {
			credits[ev.ovc]++
		}
	}
	for r := range n.routers {
		rt := &n.routers[r]
		for p := range rt.out {
			op := &rt.out[p]
			if op.kind != topo.Network {
				continue
			}
			down := &n.routers[op.peer]
			for v := 0; v < n.vcs; v++ {
				ivc := op.peerIn + int32(v)
				ovc := int32(p)<<n.vcShift + int32(v)
				visit(ChannelAudit{
					Router:          topo.RouterID(r),
					Port:            p,
					VC:              v,
					Depth:           n.vcDepth,
					Credits:         int(rt.ovc[ovc].credits),
					Buffered:        int(down.vq[ivc].count),
					FlitsInFlight:   flits[int64(op.peer)<<32|int64(ivc)],
					CreditsInFlight: credits[(rt.outBase+int32(p))<<n.vcShift+int32(v)],
					Owner:           n.arena.ptr(rt.ovc[ovc].owner),
				})
			}
		}
	}
}

// AuditPackets visits, in no particular order, every packet that has put
// at least one flit into the network and not yet delivered its tail,
// with how many of its flits have entered a terminal input buffer and
// how many have left an ejection channel. It is the packet-side twin of
// AuditChannels: an observer attached to a restored network seeds its
// per-packet state from it, and must not retain p. O(buffers +
// calendar), like AuditChannels.
func (n *Network) AuditPackets(visit func(p *Packet, injected, ejected int)) {
	alive := make([]int32, n.arena.next) // by handle: flits buffered or in flight
	for r := range n.routers {
		rt := &n.routers[r]
		n.eachInputVC(rt, func(_, _ int, q *vcq) {
			for k := int32(0); k < q.count; k++ {
				alive[rt.nth(q, k).pkt()]++
			}
		})
	}
	for i := range n.cal {
		for _, ev := range n.cal[i].flits {
			alive[ev.f.pkt()]++
		}
		for _, ev := range n.cal[i].delivers {
			alive[ev.f.pkt()]++
		}
	}
	for i := range n.sources {
		if s := &n.sources[i]; s.cur != 0 {
			if injected := n.cfg.PacketSize - int(s.remaining); injected > 0 {
				visit(n.arena.pkt(s.cur), injected, injected-int(alive[s.cur]))
			}
			alive[s.cur] = 0
		}
	}
	for h, flits := range alive {
		if flits > 0 {
			visit(n.arena.pkt(int32(h)), n.cfg.PacketSize, n.cfg.PacketSize-int(flits))
		}
	}
}

// FaultKind selects a deliberate corruption for InjectFault. The faults
// exist so the sanitizer's own tests can prove each checker fires; they
// are never triggered by the simulator itself.
type FaultKind int

const (
	// FaultDropFlit silently deletes the flit at the head of a network
	// input VC, without returning a credit: a lost flit.
	FaultDropFlit FaultKind = iota
	// FaultLeakCredit destroys one credit of a network output VC.
	FaultLeakCredit
	// FaultDupCredit forges one extra credit at a network output VC.
	FaultDupCredit
	// FaultFreeVC clears the wormhole owner of a downstream VC while a
	// packet still holds it, letting the allocator double-grant it.
	FaultFreeVC
	// FaultSeizeVC marks a free downstream VC as owned by a phantom
	// packet that will never release it: every head flit routed there
	// stalls forever — a wedged wormhole.
	FaultSeizeVC
)

// InjectFault applies a deliberate fault at (r, port, vc). For
// FaultDropFlit, port indexes the router's input ports; for the others it
// indexes output ports. It returns an error when the target cannot host
// the fault (wrong port kind, empty buffer, free VC), so tests can scan
// for a viable site.
func (n *Network) InjectFault(k FaultKind, r topo.RouterID, port, vc int) error {
	rt := &n.routers[r]
	if vc < 0 || vc >= n.vcs {
		return fmt.Errorf("sim: fault needs a VC in [0,%d), got %d", n.vcs, vc)
	}
	if k == FaultDropFlit {
		if port < 0 || port >= len(rt.in) || rt.in[port].kind != topo.Network {
			return fmt.Errorf("sim: fault needs a network input port, got router %d port %d", r, port)
		}
		ivc := int32(port)<<n.vcShift | int32(vc)
		q := &rt.vq[ivc]
		if q.count == 0 {
			return fmt.Errorf("sim: router %d in port %d vc %d is empty", r, port, vc)
		}
		rt.pop(q)
		if q.count == 0 {
			n.clearVC(rt, ivc)
		}
		return nil
	}
	if port < 0 || port >= len(rt.out) || rt.out[port].kind != topo.Network {
		return fmt.Errorf("sim: fault needs a network output port, got router %d port %d", r, port)
	}
	ov := &rt.ovc[port<<n.vcShift|vc]
	switch k {
	case FaultLeakCredit:
		if ov.credits <= 0 {
			return fmt.Errorf("sim: router %d out port %d vc %d has no credit to leak", r, port, vc)
		}
		ov.credits--
	case FaultDupCredit:
		ov.credits++
	case FaultFreeVC:
		if ov.owner == 0 {
			return fmt.Errorf("sim: router %d out port %d vc %d is not owned", r, port, vc)
		}
		ov.owner = 0
	case FaultSeizeVC:
		if ov.owner != 0 {
			return fmt.Errorf("sim: router %d out port %d vc %d is already owned", r, port, vc)
		}
		// The owner is a phantom packet with ID -1: a handle of the slab
		// that no flit carries, so nothing ever releases or frees it.
		ph := n.arena.allocPacket()
		*n.arena.pkt(ph) = Packet{ID: -1}
		ov.owner = ph
	default:
		return fmt.Errorf("sim: unknown fault kind %d", k)
	}
	return nil
}
