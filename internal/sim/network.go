package sim

import (
	"fmt"
	"math"
	"math/bits"

	"flatnet/internal/rng"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// Config holds the router microarchitecture parameters of a simulation.
type Config struct {
	// Seed drives every random stream in the simulation. Identical seeds
	// and configurations produce identical results.
	Seed uint64
	// BufPerPort is the total flit buffering per input port, divided
	// evenly among the algorithm's virtual channels (§3.2 uses 32).
	BufPerPort int
	// Speedup limits how many flits one input port may forward per cycle
	// across its VCs. 0 means unlimited — the paper's "sufficient switch
	// speedup", which leaves channel bandwidth as the only constraint.
	Speedup int
	// PacketSize is the number of flits per packet (default 1, the
	// paper's configuration; §3.2 notes packet size does not change the
	// comparisons). Multi-flit packets use wormhole switching: the head
	// flit routes and acquires the downstream virtual channel, body flits
	// follow in order, and the tail flit releases the channel.
	PacketSize int
	// AgeArbiter switches switch allocation from round-robin to
	// oldest-packet-first. Age-based arbitration is the classic remedy
	// (GOAL; Singh et al., the paper's refs [27][28]) for the
	// post-saturation throughput instability that locally-fair
	// round-robin exhibits on multi-hop patterns such as tornado on a
	// torus ring.
	AgeArbiter bool
	// RouterDelay adds a fixed per-hop pipeline delay in cycles: a flit
	// arriving at a router becomes routable RouterDelay cycles later.
	// 0 models the paper's single-cycle router (§3.2); real high-radix
	// parts (YARC) have deep pipelines.
	RouterDelay int
}

// DefaultConfig mirrors the paper's §3.2 router: 32 flits of buffering per
// port, single-flit packets, and sufficient speedup.
func DefaultConfig() Config {
	return Config{Seed: 1, BufPerPort: 32, Speedup: 0, PacketSize: 1}
}

// flit is one flow-control unit of a packet.
type flit struct {
	pkt  *Packet
	tail bool
}

// vcq is the header of one virtual-channel buffer: a fixed-capacity flit
// FIFO. The flit at the head of the queue lives in the header itself; the
// flits behind it wait in a ring of slots in the owning router's flit
// slab. A VC holding a single flit — the common case below saturation —
// is therefore served from its header alone and never touches the slab.
// The routing decision applies to the packet currently being forwarded
// (from its head flit reaching the queue head until its tail flit
// departs); per-VC FIFO channel order guarantees packets never interleave
// within one input VC.
//
// Headers are indexed by input-VC index ivc = port<<vcShift | vc, which is
// also the switch allocator's request key. A header is 32 bytes so two
// share a cache line and none straddles one (TestHotLayoutSizes).
type vcq struct {
	hpkt  *Packet // packet of the flit at the head of the queue, valid while count > 0
	base  int32   // first slot of this VC's ring in router.flits
	cap   int32   // queue capacity; 0 for the padding VCs of a terminal port
	head  int32   // ring position of the second flit in the queue
	count int32   // flits queued, the head flit included
	out   int32   // the routing decision as an output-VC index (port<<vcShift | vc), valid when routed

	htail    bool // the head flit is a tail flit
	routed   bool // current packet has a routing decision
	headSent bool // current packet's head flit has departed
}

// push appends f to q. The ring wraps by compare, not by division.
func (rt *router) push(q *vcq, f flit) {
	if q.count == 0 {
		q.hpkt, q.htail = f.pkt, f.tail
	} else {
		pos := q.head + q.count - 1
		if pos >= q.cap {
			pos -= q.cap
		}
		rt.flits[q.base+pos] = f
	}
	q.count++
}

// pop removes and returns the flit at the head of q, promoting the next
// flit from the ring into the header. A ring that empties restarts at
// slot 0, so a lightly loaded VC keeps reusing one cache line instead of
// cycling through its whole ring.
func (rt *router) pop(q *vcq) flit {
	f := flit{pkt: q.hpkt, tail: q.htail}
	q.count--
	if q.count > 0 {
		slot := &rt.flits[q.base+q.head]
		q.hpkt, q.htail = slot.pkt, slot.tail
		*slot = flit{}
		q.head++
		if q.head == q.cap || q.count == 1 {
			q.head = 0
		}
	} else {
		q.hpkt = nil
	}
	// A tail flit ends the packet's routing decision; anything else means
	// the packet's head has now departed.
	q.headSent = !f.tail
	if f.tail {
		q.routed = false
	}
	return f
}

// nth returns the k-th flit of q counting from the head, k in [0, count).
func (rt *router) nth(q *vcq, k int32) flit {
	if k == 0 {
		return flit{pkt: q.hpkt, tail: q.htail}
	}
	pos := q.head + k - 1
	if pos >= q.cap {
		pos -= q.cap
	}
	return rt.flits[q.base+pos]
}

// inPort is the static description of one input port.
type inPort struct {
	kind topo.PortKind
	// creditLat is the cycles a credit takes to reach the upstream
	// router: the reverse-channel latency (mirrors the forward channel).
	creditLat int32
	peer      int32 // upstream router for Network inputs
	// credOVC is the network-wide output-VC index of VC 0 of the upstream
	// output port: where this port's credits return to.
	credOVC int32
}

// outPort is the per-output-port scalar state. It is 64 bytes, one cache
// line (TestHotLayoutSizes); per-VC state lives in router.ovc, and the
// port's queue estimate in router.psum, where a routing algorithm can
// compare a router's ports without visiting one outPort line each.
type outPort struct {
	nextFree  int64  // first cycle at which the channel can transmit another flit
	flitsSent int64  // traffic counter for utilization reporting
	peer      int32  // downstream router (Network outputs)
	peerIn    uint32 // flit-event address of the downstream port's VC 0: (peerPort<<vcShift)<<1
	node      int32  // attached node (Terminal outputs)
	latency   int32
	psumAt    int32 // index in Network.psum of this port's queue estimate, for credit events, which do not name the router
	rr        int32 // round-robin pointer for switch allocation: the last granted request key
	// This cycle's requesters, a list linked through router.reqNext in
	// ascending request-key order; valid while nreq > 0.
	reqHead int32
	reqTail int32
	nreq    int32
	router  int32 // owning router, for resolving credit events back to (router, port)
	kind    topo.PortKind
}

// outVC is the per-output-VC flow-control state, indexed like vcq by
// ovc = port<<vcShift | vc.
type outVC struct {
	owner   *Packet // packet holding the downstream VC (wormhole); nil means free
	credits int32   // free slots downstream; unused for Terminal outputs
	pending int32   // queue estimate (routed here + in flight + downstream occupancy)
}

// router holds one router's views into the network-wide state slabs plus
// its scheduling bitsets. All per-port and per-VC state of a router is
// contiguous, so a router visit walks a few dense arrays instead of
// chasing one heap object per port.
type router struct {
	id     topo.RouterID
	occVCs int32 // occupied input VCs; > 0 keeps the router on the active worklist
	// outBase is the network-wide index of out[0]: credit events address
	// output VCs network-wide so they need not name the router.
	outBase int32

	occ    []uint64 // bit ivc set while input VC ivc holds a flit
	reqOut []uint64 // bit p set while output port p has requesters this cycle

	vq    []vcq  // input VC headers by ivc
	flits []flit // the input VCs' ring slots
	in    []inPort
	out   []outPort
	ovc   []outVC // output VC state by ovc
	// psum is the router's row of queue estimates, one per output port:
	// the sum of pending over the port's VCs, kept in step with it at
	// every site that changes pending. The row is dense so adaptive
	// routing scans it in place (RouterView.QueueEstRow).
	psum []int32
	rng  *rng.Source

	reqNext []int32 // request-list links by request key: the next requester of the same output
	touched []int32 // this cycle's decisions awaiting the fold into pending (greedy allocation only)
	grants  []int16 // per-input-port grants this cycle; maintained only when Speedup > 0
	granted []bool  // per-request-key grant scratch for the age arbiter; nil unless AgeArbiter
}

// carve returns the n-element window of slab starting at off, capped so an
// append can never run into a neighbour's window.
func carve[T any](slab []T, off, n int) []T { return slab[off : off+n : off+n] }

// routerWords returns the 64-bit words a router's scheduling bitsets (one
// bit per input VC index, one per output port) take in the shared word
// slab, rounded up to whole cache lines: the sets are written on every
// buffer transition, so neighbouring routers never share a line.
func routerWords(inVCs, outPorts int) int {
	return ((inVCs+63)/64 + (outPorts+63)/64 + 7) &^ 7
}

// psumStride returns the int32 entries a router's queue-estimate row takes
// in the shared slab: one per output port, rounded up to whole cache lines
// for routerWords' reason — a row is written on every routing decision and
// credit return.
func psumStride(outPorts int) int { return (outPorts + 15) &^ 15 }

// inVCs returns how many virtual channels input port ip buffers: the
// algorithm's VC count for a network port, one (holding the full per-port
// buffering) for a terminal port, none for an unused slot.
func (n *Network) inVCs(ip *inPort) int {
	switch ip.kind {
	case topo.Network:
		return n.vcs
	case topo.Terminal:
		return 1
	}
	return 0
}

// eachInputVC visits every input VC buffer of rt in (port, vc) order,
// skipping the padding headers that round a port's VC count up to the
// index stride. This is the order snapshots serialise buffers in.
func (n *Network) eachInputVC(rt *router, visit func(port, vc int, q *vcq)) {
	for p := range rt.in {
		for v, nv := 0, n.inVCs(&rt.in[p]); v < nv; v++ {
			visit(p, v, &rt.vq[p<<n.vcShift+v])
		}
	}
}

// The cycle calendar holds three homogeneous event lists per slot instead
// of one tagged list. Flit arrivals touch only input VCs, credit returns
// only output VCs, deliveries only counters and callbacks, so draining the
// lists one after another is equivalent to draining the interleaved
// scheduling order as long as each list keeps its own scheduling order
// (DESIGN.md §10). The element sizes are guarded by TestHotLayoutSizes.

// flitEv is a flit arriving at an input VC.
type flitEv struct {
	pkt    *Packet
	router int32
	in     uint32 // ivc<<1 | tail
}

// creditEv is a credit returning to an output VC.
type creditEv struct {
	ovc int32 // network-wide output-VC index
	// pos is the length of the slot's flit list when the credit was
	// scheduled. Nothing on the hot path reads it; Snapshot uses it to
	// write flits and credits back in their interleaved scheduling order,
	// which the file format pins.
	pos uint32
}

// deliverEv is a flit leaving an ejection channel.
type deliverEv struct {
	pkt  *Packet
	node int32 // the ejection channel's terminal
	// dt is delay<<1 | tail, where delay is the cycles between traverse
	// and delivery. Only Snapshot reads the delay: the file format pins it.
	dt int32
}

func (ev *deliverEv) tail() bool   { return ev.dt&1 != 0 }
func (ev *deliverEv) delay() int64 { return int64(ev.dt >> 1) }

// calSlot is one cycle of the calendar ring.
type calSlot struct {
	flits    []flitEv
	credits  []creditEv
	delivers []deliverEv
}

// Network is one instantiated simulation: a topology graph, a routing
// algorithm, router state, traffic sources, and measurement hooks. Step
// runs on the caller's goroutine; a Network owns none (DESIGN.md §13).
type Network struct {
	g   *topo.Graph
	alg Algorithm
	cfg Config

	vcs     int
	vcDepth int
	// vcShift and vcMask pack (port, vc) into one index, port<<vcShift | vc,
	// with the VC count rounded up to a power of two so unpacking is a
	// shift and a mask.
	vcShift uint
	vcMask  int32

	cycle   int64
	calPos  int // cycle % calLen, advanced with cycle
	routers []router
	sources []source
	maxLat  int
	calLen  int // calendar ring length

	// Network-wide slabs behind the routers' per-router views. outs and
	// ovc are also indexed directly by credit events.
	outs []outPort
	ovc  []outVC
	psum []int32 // the routers' queue-estimate rows, psumStride entries each

	// Per-cycle scheduler state: the event calendar, the arena its lists
	// and the packets recycle through, the view handed to Route, and the
	// two worklists — activeR bit r is set while router r holds a buffered
	// flit, activeS bit i while source i has injection work.
	cal     []calSlot
	arena   arena
	view    RouterView
	activeR []uint64
	activeS []uint64

	closed  bool
	stepAll bool

	nextID        int64
	injected      int64 // packets materialized
	flitsInjected int64 // flits pushed into a terminal input buffer

	// wl is the installed workload source (arrival + destination
	// process). pendingWl stashes a restored snapshot's workload state
	// until SetSource installs the matching source.
	wl        traffic.Source
	pendingWl *pendingWorkload

	// Measurement state, managed by the run harnesses.
	measStart, measEnd int64 // packets injected in [measStart, measEnd) are measured
	statsStart         int64 // start of the channel-utilization window

	// xfers maps in-flight transfer packets (StartTransfer) to their
	// handles; nil until the first transfer, so ordinary runs pay one nil
	// check per materialization and delivery.
	xfers map[*Packet]*Transfer

	// hooks and packetHooks are the attached hook sets (AttachHooks),
	// walked in order at every pipeline site and at the two packet sites;
	// probes is the registry Probes returns.
	hooks, packetHooks []*Hooks
	probes             *Probes

	deliveredTotal int64 // packets fully delivered (tail flit ejected)
	flitsDelivered int64
	measCreated    int64
	measDelivered  int64
}

// New builds a Network over the given channel graph. The algorithm's VC
// count determines the per-VC buffer depth: cfg.BufPerPort / NumVCs
// (minimum 1).
func New(g *topo.Graph, alg Algorithm, cfg Config) (*Network, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.BufPerPort < 1 {
		return nil, fmt.Errorf("sim: BufPerPort must be >= 1, got %d", cfg.BufPerPort)
	}
	if cfg.PacketSize == 0 {
		cfg.PacketSize = 1
	}
	if cfg.PacketSize < 1 {
		return nil, fmt.Errorf("sim: PacketSize must be >= 1, got %d", cfg.PacketSize)
	}
	if cfg.RouterDelay < 0 {
		return nil, fmt.Errorf("sim: RouterDelay must be >= 0, got %d", cfg.RouterDelay)
	}
	vcs := alg.NumVCs()
	if vcs < 1 {
		return nil, fmt.Errorf("sim: algorithm %q needs at least 1 VC", alg.Name())
	}
	if vcs > 64 {
		return nil, fmt.Errorf("sim: algorithm %q needs %d VCs, more than the supported 64", alg.Name(), vcs)
	}
	depth := cfg.BufPerPort / vcs
	if depth < 1 {
		depth = 1
	}
	shift := uint(bits.Len(uint(vcs - 1)))
	// A port's slot budget covers either split: vcs rings of depth flits
	// (network input) or one ring of the full per-port buffering (terminal).
	portSlots := cfg.BufPerPort
	if vcs*depth > portSlots {
		portSlots = vcs * depth
	}
	var nIn, nOut, nSlots, nWords, nPsum int
	for r := range g.Routers {
		rd := &g.Routers[r]
		nIn += len(rd.In)
		nOut += len(rd.Out)
		for p := range rd.In {
			if rd.In[p].Kind != topo.Unused {
				nSlots += portSlots
			}
		}
		nWords += routerWords(len(rd.In)<<shift, len(rd.Out))
		nPsum += psumStride(len(rd.Out))
	}
	// State indices and flit counts are 32-bit: VC indices, ring slots, and
	// queue estimates, which reserve a whole packet per routed input VC.
	if nIn<<shift > math.MaxInt32/2 || nOut<<shift > math.MaxInt32 || nPsum > math.MaxInt32 || nSlots > math.MaxInt32 ||
		cfg.PacketSize > math.MaxInt32/(nIn<<shift+1) {
		return nil, fmt.Errorf("sim: network too large for the simulator's 32-bit state (%d input ports, %d output ports, %d VCs, %d flits per port, %d flits per packet)",
			nIn, nOut, vcs, portSlots, cfg.PacketSize)
	}
	n := &Network{
		g:         g,
		alg:       alg,
		cfg:       cfg,
		vcs:       vcs,
		vcDepth:   depth,
		vcShift:   shift,
		vcMask:    int32(1)<<shift - 1,
		measStart: -1,
		measEnd:   -1,
		outs:      make([]outPort, nOut),
		ovc:       make([]outVC, nOut<<shift),
		psum:      make([]int32, nPsum),
	}
	// Every router's state is carved out of a handful of network-wide
	// slabs: contiguous per router, and a few allocations per network
	// instead of several per port.
	vqSlab := make([]vcq, nIn<<shift)
	flitSlab := make([]flit, nSlots)
	inSlab := make([]inPort, nIn)
	wordSlab := make([]uint64, nWords)
	touchedSlab := make([]int32, nIn*vcs)
	nextSlab := make([]int32, nIn<<shift)
	var grantSlab []int16
	if cfg.Speedup > 0 {
		grantSlab = make([]int16, nIn)
	}
	var grantedSlab []bool
	if cfg.AgeArbiter {
		grantedSlab = make([]bool, nIn<<shift)
	}
	master := rng.New(cfg.Seed)
	n.routers = make([]router, len(g.Routers))
	outBase := 0
	for r := range g.Routers {
		n.routers[r].outBase = int32(outBase)
		outBase += len(g.Routers[r].Out)
	}
	maxLat := 1
	var inOff, slotOff, wordOff, psumOff int
	for r := range g.Routers {
		rd := &g.Routers[r]
		rt := &n.routers[r]
		rt.id = topo.RouterID(r)
		rt.rng = rng.New(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(r+1)))
		nin, nout := len(rd.In), len(rd.Out)
		rt.in = carve(inSlab, inOff, nin)
		rt.vq = carve(vqSlab, inOff<<shift, nin<<shift)
		rt.reqNext = carve(nextSlab, inOff<<shift, nin<<shift)
		// touched holds at most one entry per occupied input VC.
		rt.touched = carve(touchedSlab, inOff*vcs, nin*vcs)[:0]
		if grantSlab != nil {
			rt.grants = carve(grantSlab, inOff, nin)
		}
		if grantedSlab != nil {
			rt.granted = carve(grantedSlab, inOff<<shift, nin<<shift)
		}
		inOff += nin
		ob := int(rt.outBase)
		rt.out = carve(n.outs, ob, nout)
		rt.ovc = carve(n.ovc, ob<<shift, nout<<shift)
		occWords := (nin<<shift + 63) / 64
		rt.occ = carve(wordSlab, wordOff, occWords)
		rt.reqOut = carve(wordSlab, wordOff+occWords, (nout+63)/64)
		wordOff += routerWords(nin<<shift, nout)
		rt.psum = carve(n.psum, psumOff, nout)
		slot0 := slotOff
		for p := range rd.In {
			ip := &rt.in[p]
			ip.kind = rd.In[p].Kind
			if ip.kind == topo.Unused {
				continue
			}
			base := int32(slotOff - slot0)
			slotOff += portSlots
			q0 := p << shift
			switch ip.kind {
			case topo.Network:
				ip.peer = int32(rd.In[p].Peer)
				ip.creditLat = int32(g.Routers[ip.peer].Out[rd.In[p].PeerPort].Latency)
				ip.credOVC = (n.routers[ip.peer].outBase + int32(rd.In[p].PeerPort)) << shift
				for v := 0; v < vcs; v++ {
					rt.vq[q0+v].base = base + int32(v*depth)
					rt.vq[q0+v].cap = int32(depth)
				}
			case topo.Terminal:
				// The terminal (injection) buffer is a single logical VC
				// holding the full per-port buffering.
				rt.vq[q0].base = base
				rt.vq[q0].cap = int32(cfg.BufPerPort)
			}
		}
		rt.flits = carve(flitSlab, slot0, slotOff-slot0)
		for p := range rd.Out {
			op := &rt.out[p]
			op.kind = rd.Out[p].Kind
			op.router = int32(r)
			op.peer = int32(rd.Out[p].Peer)
			op.peerIn = uint32(rd.Out[p].PeerPort) << shift << 1
			op.node = int32(rd.Out[p].Node)
			op.latency = int32(rd.Out[p].Latency)
			op.psumAt = int32(psumOff + p)
			if int(op.latency) > maxLat {
				maxLat = int(op.latency)
			}
			if op.kind == topo.Network {
				for v := 0; v < vcs; v++ {
					rt.ovc[p<<shift+v].credits = int32(depth)
				}
			}
		}
		psumOff += psumStride(nout)
	}
	n.maxLat = maxLat
	// The calendar ring must cover the worst-case scheduling horizon: the
	// channel latency plus router pipeline delay plus the per-channel
	// staging backlog, which credits bound to the downstream per-port
	// buffering.
	n.calLen = maxLat + cfg.RouterDelay + cfg.BufPerPort + 2
	n.sources = make([]source, g.NumNodes)
	for i := range n.sources {
		s := &n.sources[i]
		s.rng = master.Split()
		s.router = int32(g.NodeRouter[i])
		s.ivc = int32(g.InjPort[i]) << shift
	}
	n.cal = make([]calSlot, n.calLen)
	n.activeR = make([]uint64, (len(g.Routers)+63)/64)
	n.activeS = make([]uint64, (g.NumNodes+63)/64)
	n.view.n = n
	return n, nil
}

// Cycle returns the current simulation time.
func (n *Network) Cycle() int64 { return n.cycle }

// NumNodes returns the number of terminals.
func (n *Network) NumNodes() int { return n.g.NumNodes }

// VCs returns the virtual-channel count in use.
func (n *Network) VCs() int { return n.vcs }

// VCDepth returns the per-VC buffer depth in flits.
func (n *Network) VCDepth() int { return n.vcDepth }

// slot returns the calendar slot delay cycles ahead (0 <= delay < calLen).
func (n *Network) slot(delay int) *calSlot {
	i := n.calPos + delay
	if i >= len(n.cal) {
		i -= len(n.cal)
	}
	return &n.cal[i]
}

// scheduleFlit enqueues a flit arrival at input VC in>>1 of router, delay
// cycles in the future. List growth goes through the arena so backing
// arrays are recycled across calendar slots and the steady state
// schedules without allocating.
//
// The schedule helpers take scalars and build the element in place: an
// event struct passed by value is assembled on the stack with narrow
// stores and reloaded wide, a store-forwarding stall on every flit hop.
func (n *Network) scheduleFlit(delay int, router int32, in uint32, pkt *Packet) {
	n.slot(delay).addFlit(&n.arena, flitEv{pkt: pkt, router: router, in: in})
}

// scheduleCredit enqueues a credit return to network-wide output VC ovc.
func (n *Network) scheduleCredit(delay int, ovc int32) {
	n.slot(delay).addCredit(&n.arena, ovc)
}

// scheduleDeliver enqueues a delivery at node's ejection channel.
func (n *Network) scheduleDeliver(delay int, node int32, tail bool, pkt *Packet) {
	dt := int32(delay) << 1
	if tail {
		dt |= 1
	}
	n.slot(delay).addDeliver(&n.arena, deliverEv{pkt: pkt, node: node, dt: dt})
}

// The add helpers append to one of a slot's lists, growing it through
// the arena; growth is outlined so the append itself inlines into the
// schedule helpers.

func (s *calSlot) addFlit(a *arena, ev flitEv) {
	if len(s.flits) == cap(s.flits) {
		a.growFlits(s)
	}
	s.flits = append(s.flits, ev)
}

// addCredit appends a credit and stamps its position among the slot's
// flits (see creditEv.pos).
func (s *calSlot) addCredit(a *arena, ovc int32) {
	if len(s.credits) == cap(s.credits) {
		a.growCredits(s)
	}
	s.credits = append(s.credits, creditEv{ovc: ovc, pos: uint32(len(s.flits))})
}

// eachArrival visits the slot's flit arrivals and credit returns in the
// order they were scheduled, interleaved as a single tagged list would
// hold them: a credit stamped pos follows the first pos flits. Exactly
// one argument of visit is non-nil per call.
func (s *calSlot) eachArrival(visit func(*flitEv, *creditEv)) {
	f := 0
	for c := range s.credits {
		for ; f < len(s.flits) && f < int(s.credits[c].pos); f++ {
			visit(&s.flits[f], nil)
		}
		visit(nil, &s.credits[c])
	}
	for ; f < len(s.flits); f++ {
		visit(&s.flits[f], nil)
	}
}

func (s *calSlot) addDeliver(a *arena, ev deliverEv) {
	if len(s.delivers) == cap(s.delivers) {
		a.growDelivers(s)
	}
	s.delivers = append(s.delivers, ev)
}

//go:noinline
func (a *arena) growFlits(s *calSlot) { s.flits = a.flits.grow(s.flits) }

//go:noinline
func (a *arena) growCredits(s *calSlot) { s.credits = a.credits.grow(s.credits) }

//go:noinline
func (a *arena) growDelivers(s *calSlot) { s.delivers = a.delivers.grow(s.delivers) }

// wakeVC marks input VC ivc of rt occupied and puts the router on the
// active worklist. Idempotent when the bit is already set.
func (n *Network) wakeVC(rt *router, ivc int32) {
	w, bit := ivc>>6, uint64(1)<<(uint(ivc)&63)
	if rt.occ[w]&bit != 0 {
		return
	}
	rt.occ[w] |= bit
	if rt.occVCs == 0 {
		r := uint(rt.id)
		n.activeR[r>>6] |= 1 << (r & 63)
	}
	rt.occVCs++
}

// clearVC marks input VC ivc of rt empty, dropping the router from the
// worklist when it was its last occupied VC. The bit must be set.
func (n *Network) clearVC(rt *router, ivc int32) {
	rt.occ[ivc>>6] &^= 1 << (uint(ivc) & 63)
	rt.occVCs--
	if rt.occVCs == 0 {
		r := uint(rt.id)
		n.activeR[r>>6] &^= 1 << (r & 63)
	}
}

// wakeSource puts source i on the injection worklist.
func (n *Network) wakeSource(i int) {
	n.activeS[uint(i)>>6] |= 1 << (uint(i) & 63)
}

// Step advances the simulation by one cycle.
func (n *Network) Step() {
	n.processEvents()
	n.inject()
	n.routeAllocate()
	n.switchAllocate()
	for _, h := range n.hooks {
		if h.EndCycle != nil {
			h.EndCycle()
		}
	}
	n.advanceCycle()
}

// SetWorkers is inert: the cycle core has one sequential scheduler
// (DESIGN.md §13). It stays, rejecting only k < 0, because flatbench
// (bench/core.go) calls it.
func (n *Network) SetWorkers(k int) error {
	if k < 0 {
		return fmt.Errorf("sim: worker count must be >= 0, got %d", k)
	}
	return nil
}

// Workers always returns 1; inert, kept for flatbench like SetWorkers.
func (n *Network) Workers() int { return 1 }

// Close marks the network closed: Snapshot refuses it from then on. It is
// idempotent and releases nothing.
func (n *Network) Close() { n.closed = true }

// advanceCycle moves simulation time forward one cycle, keeping the
// calendar position in step so no schedule or drain divides.
func (n *Network) advanceCycle() {
	n.cycle++
	n.calPos++
	if n.calPos == n.calLen {
		n.calPos = 0
	}
}

// processEvents applies flit arrivals, credit returns and deliveries
// scheduled for the current cycle, one homogeneous list after another.
func (n *Network) processEvents() {
	s := &n.cal[n.calPos]
	for i := range s.flits {
		ev := &s.flits[i]
		rt := &n.routers[ev.router]
		ivc := int32(ev.in >> 1)
		rt.push(&rt.vq[ivc], flit{pkt: ev.pkt, tail: ev.in&1 != 0})
		n.wakeVC(rt, ivc)
	}
	s.flits = s.flits[:0]
	for _, ev := range s.credits {
		ov := &n.ovc[ev.ovc]
		ov.credits++
		ov.pending--
		n.psum[n.outs[ev.ovc>>n.vcShift].psumAt]--
		for _, h := range n.hooks {
			if h.CreditReturn != nil {
				r, port, vc := n.creditTarget(ev.ovc)
				h.CreditReturn(topo.RouterID(r), port, vc, int(ov.credits))
			}
		}
	}
	s.credits = s.credits[:0]
	for i := range s.delivers {
		n.deliverEvent(&s.delivers[i])
	}
	s.delivers = s.delivers[:0]
}

// creditTarget resolves a network-wide output-VC index to its router,
// output port and VC.
func (n *Network) creditTarget(ovc int32) (router int32, port, vc int) {
	gp := ovc >> n.vcShift
	router = n.outs[gp].router
	return router, int(gp - n.routers[router].outBase), int(ovc & n.vcMask)
}

// deliverEvent applies one ejection event: counters, hooks, transfer
// accounting, and packet recycling into the arena.
func (n *Network) deliverEvent(ev *deliverEv) {
	n.flitsDelivered++
	pkt, tail := ev.pkt, ev.tail()
	for _, h := range n.hooks {
		if h.Eject != nil {
			h.Eject(pkt, n.g.EjRouter[ev.node], n.g.EjPort[ev.node], tail)
		}
	}
	if !tail {
		return
	}
	n.deliveredTotal++
	if pkt.Measured {
		n.measDelivered++
	}
	if n.xfers != nil {
		n.completeTransfer(pkt)
	}
	for _, h := range n.packetHooks {
		if h.Deliver != nil {
			h.Deliver(pkt, n.cycle)
		}
	}
	n.arena.freePacket(pkt)
}

// inject moves flits from source backlogs into their routers' terminal
// input buffers, one flit per node per cycle (terminal channel
// bandwidth). Multi-flit packets stream over PacketSize cycles. Only
// sources on the active worklist (a packet mid-injection or a non-empty
// backlog) are visited; a source that runs dry leaves the list until the
// next arrival wakes it.
func (n *Network) inject() {
	if n.stepAll {
		for i := range n.sources {
			n.injectSource(i)
		}
		return
	}
	for w := range n.activeS {
		for word := n.activeS[w]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if !n.injectSource(w<<6 + b) {
				n.activeS[w] &^= 1 << uint(b)
			}
		}
	}
}

// injectSource advances one source's injection by up to one flit and
// reports whether the source still has pending work (and so must stay on
// the worklist).
func (n *Network) injectSource(i int) bool {
	s := &n.sources[i]
	if s.cur == nil {
		if s.empty() {
			return false // drop from the worklist
		}
		if s.peekTS() > n.cycle {
			return true // the next (trace) arrival is in the future
		}
		a := s.pop()
		var xfer *Transfer
		if a.xfer {
			xfer = s.popTransfer()
		}
		p := n.arena.allocPacket()
		p.ID = n.nextID
		n.nextID++
		p.Src = topo.NodeID(i)
		if a.dst >= 0 {
			p.Dst = topo.NodeID(a.dst)
		} else {
			p.Dst = n.wl.Dest(topo.NodeID(i), s.rng)
		}
		p.Phase = PhaseNew
		p.InjectCycle = a.ts
		p.NetworkCycle = n.cycle
		p.Measured = a.ts >= n.measStart && a.ts < n.measEnd
		s.cur = p
		s.remaining = int32(n.cfg.PacketSize)
		n.injected++
		if xfer != nil {
			n.registerTransfer(p, xfer)
		}
		for _, h := range n.packetHooks {
			if h.Materialize != nil {
				h.Materialize(p)
			}
		}
	}
	rt := &n.routers[s.router]
	q := &rt.vq[s.ivc]
	if q.count == q.cap {
		return true
	}
	s.remaining--
	tail := s.remaining == 0
	rt.push(q, flit{pkt: s.cur, tail: tail})
	n.wakeVC(rt, s.ivc)
	n.flitsInjected++
	for _, h := range n.hooks {
		if h.Inject != nil {
			h.Inject(s.cur, rt.id, int(s.ivc>>n.vcShift), tail)
		}
	}
	if tail {
		s.cur = nil
	}
	return s.cur != nil || !s.empty()
}

// PacketSize returns the configured flits per packet.
func (n *Network) PacketSize() int { return n.cfg.PacketSize }

// Inventory counts every flit currently alive inside the simulator:
// buffered in routers plus in flight on channels (including flits whose
// delivery event is pending). Used by conservation tests.
func (n *Network) Inventory() (buffered, inFlight int) {
	for r := range n.routers {
		for i := range n.routers[r].vq {
			buffered += int(n.routers[r].vq[i].count)
		}
	}
	for i := range n.cal {
		inFlight += len(n.cal[i].flits) + len(n.cal[i].delivers)
	}
	return buffered, inFlight
}

// Totals returns lifetime counters: packets materialized into the network
// and packets fully delivered.
func (n *Network) Totals() (injected, delivered int64) {
	return n.injected, n.deliveredTotal
}

// FlitTotals returns lifetime flit counters: flits that entered a
// terminal input buffer and flits that left an ejection channel.
func (n *Network) FlitTotals() (injected, delivered int64) {
	return n.flitsInjected, n.flitsDelivered
}

// Backlog returns the number of generated-but-not-yet-materialized packets
// waiting in source queues.
func (n *Network) Backlog() int64 {
	var b int64
	for i := range n.sources {
		b += int64(n.sources[i].backlogLen())
	}
	return b
}
