package sim

import (
	"fmt"
	"io"
	"math"

	"flatnet/internal/snapshot"
	"flatnet/internal/topo"
)

// This file implements deterministic checkpoint/restore of a Network
// (DESIGN.md §14). Snapshot serialises the complete simulation state
// between Steps — router buffers and credits, calendar events, in-flight
// packets, worklists, RNG streams, transfer maps, harness counters —
// into the internal/snapshot container; Restore rebuilds an equivalent
// Network such that restore-then-run is bit-identical to running the
// original straight through.
//
// The format is canonical: identical state always serialises to
// identical bytes. Two orderings make that hold:
//
//   - Packets are indexed in a fixed collection order (input buffers,
//     then VC owners, then events, then source heads), so pointer
//     identity never leaks into the stream.
//   - Events are written by ascending due cycle; within a cycle, flit
//     and credit events in their interleaved scheduling order
//     (creditEv.pos), then deliveries in scheduling order — the
//     calendar walked slot by slot.
//
// Packet IDs are opaque: a live packet's ID only has to be below nextID,
// which the file carries. Snapshots written by the retired parallel
// scheduler key IDs as cycle·N + src with nextID already raised above
// them, and restore like any other.
//
// Restored state that is provably empty between Steps (the greedy fold
// list, request lists, arena freelists) is simply recomputed or left at
// its zero value.

// Snapshot section tags, in stream order.
const (
	secDigest uint64 = iota + 1
	secScalars
	secPackets
	secTransfers
	secRouters
	secSources
	secEvents
	secWorkload
)

// pendingWorkload holds a restored snapshot's workload-source state
// until SetSource installs the matching source. A network carrying a
// pending workload snapshots it back out verbatim, so restore-then-
// snapshot round-trips byte-identically even before a source is
// installed.
type pendingWorkload struct {
	name  string
	state []byte
}

// snapshotCaps derives allocation bounds for restore-side validation
// from the topology: hostile length prefixes can never force an
// allocation beyond what a real network of this shape could hold.
func (n *Network) snapshotCaps() (maxEvents, maxPackets int) {
	outPorts := 0
	bufFlits := 0
	for r := range n.routers {
		outPorts += len(n.routers[r].out)
		for i := range n.routers[r].vq {
			bufFlits += int(n.routers[r].vq[i].cap)
		}
	}
	// Per output channel: staged flits are credit/backlog bounded by the
	// downstream buffering, and in-flight credits by the same. Deliveries
	// are staged flits of terminal channels.
	maxEvents = 2*n.cfg.BufPerPort*outPorts + 64
	// Every live packet holds at least one flit in a buffer, an event, or
	// a source's mid-injection slot.
	maxPackets = bufFlits + maxEvents + len(n.sources) + 16
	return maxEvents, maxPackets
}

// Event kind tags of the snapshot's event section.
const (
	evFlit = iota
	evCredit
	evDeliver
)

// eachEvent visits every pending calendar event in the file's order (see
// the file comment), in the file's fields: the due cycle as a delta from
// now; vc is the virtual channel of a flit or credit and the scheduling
// delay of a delivery; pkt is nil for a credit.
func (n *Network) eachEvent(visit func(delta int, kind uint64, tail bool, vc, router, port int32, pkt *Packet)) {
	for delta := range n.cal {
		s := n.slot(delta)
		s.eachArrival(func(fe *flitEv, ce *creditEv) {
			if fe != nil {
				ivc := int32(fe.in >> 1)
				visit(delta, evFlit, fe.in&1 != 0, ivc&n.vcMask, fe.router, ivc>>n.vcShift, fe.pkt)
				return
			}
			r, port, vc := n.creditTarget(ce.ovc)
			visit(delta, evCredit, false, int32(vc), r, int32(port), nil)
		})
		for i := range s.delivers {
			ev := &s.delivers[i]
			visit(delta, evDeliver, ev.tail(), int32(ev.delay()),
				int32(n.g.EjRouter[ev.node]), int32(n.g.EjPort[ev.node]), ev.pkt)
		}
	}
}

// Snapshot writes the network's complete state to w in the
// internal/snapshot container format. It must be called between Steps
// (never from inside a hook) and fails on instrumented networks: a
// pipeline hook set (probes, a tracer, the sanitizer) holds
// unserialisable state — re-run those from cold. Packet-only sets
// (Materialize, Deliver) do not block it.
func (n *Network) Snapshot(w io.Writer) error {
	if n.closed {
		return fmt.Errorf("sim: cannot snapshot a closed network")
	}
	if len(n.hooks) != 0 {
		return fmt.Errorf("sim: cannot snapshot an instrumented network (%d hook sets attached)", len(n.hooks))
	}
	if n.stepAll {
		return fmt.Errorf("sim: cannot snapshot in stepAll debug mode")
	}
	// Serialise the workload source's arrival-process state up front: a
	// source that cannot serialise makes the whole network refuse to
	// snapshot, before any bytes are written.
	var wlName string
	var wlState []byte
	wlHas := false
	switch {
	case n.wl != nil:
		st, err := n.wl.State()
		if err != nil {
			return fmt.Errorf("sim: cannot snapshot: workload source %q refuses to serialise: %w", n.wl.Name(), err)
		}
		wlHas, wlName, wlState = true, n.wl.Name(), st
	case n.pendingWl != nil:
		wlHas, wlName, wlState = true, n.pendingWl.name, n.pendingWl.state
	}

	// Index every live packet in collection order. The order is a pure
	// function of simulation state, so identical states yield identical
	// indices (and identical bytes).
	pktIdx := make(map[*Packet]int)
	var pkts []*Packet
	addPkt := func(p *Packet) int {
		if i, ok := pktIdx[p]; ok {
			return i
		}
		i := len(pkts)
		pktIdx[p] = i
		pkts = append(pkts, p)
		return i
	}
	for r := range n.routers {
		rt := &n.routers[r]
		n.eachInputVC(rt, func(_, _ int, q *vcq) {
			for k := int32(0); k < q.count; k++ {
				addPkt(rt.nth(q, k).pkt)
			}
		})
		for p := range rt.out {
			for v := 0; v < n.vcs; v++ {
				if o := rt.ovc[p<<n.vcShift+v].owner; o != nil {
					addPkt(o)
				}
			}
		}
	}
	nev := 0
	n.eachEvent(func(_ int, _ uint64, _ bool, _, _, _ int32, pkt *Packet) {
		nev++
		if pkt != nil {
			addPkt(pkt)
		}
	})
	for i := range n.sources {
		if n.sources[i].cur != nil {
			addPkt(n.sources[i].cur)
		}
	}

	// Transfers, in (source backlog, then live packet) collection order.
	xferIdx := make(map[*Transfer]int)
	var xfers []*Transfer
	addXfer := func(t *Transfer) int {
		if t == nil {
			return -1
		}
		if i, ok := xferIdx[t]; ok {
			return i
		}
		i := len(xfers)
		xferIdx[t] = i
		xfers = append(xfers, t)
		return i
	}
	for i := range n.sources {
		n.sources[i].eachPending(func(_ arrival, t *Transfer) { addXfer(t) })
	}
	type livePair struct{ pkt, xfer int }
	var pairs []livePair
	for i, p := range pkts {
		if t, ok := n.xfers[p]; ok {
			pairs = append(pairs, livePair{pkt: i, xfer: addXfer(t)})
		}
	}

	sw := snapshot.NewWriter(w)

	sw.Section(secDigest)
	sw.String(n.alg.Name())
	sw.Uvarint(uint64(n.vcs))
	sw.Uvarint(uint64(n.vcDepth))
	sw.U64(n.cfg.Seed)
	sw.Varint(int64(n.cfg.BufPerPort))
	sw.Varint(int64(n.cfg.Speedup))
	sw.Varint(int64(n.cfg.PacketSize))
	sw.Bool(n.cfg.AgeArbiter)
	sw.Varint(int64(n.cfg.RouterDelay))
	sw.Uvarint(uint64(len(n.routers)))
	sw.Uvarint(uint64(n.g.NumNodes))
	sw.U64(n.g.Digest())
	sw.Varint(int64(n.maxLat))
	sw.Varint(int64(n.calLen))

	sw.Section(secScalars)
	sw.Varint(n.cycle)
	sw.Varint(n.nextID)
	sw.Varint(n.deliveredTotal)
	sw.Varint(n.flitsDelivered)
	sw.Varint(n.measCreated)
	sw.Varint(n.measDelivered)
	sw.Varint(n.measStart)
	sw.Varint(n.measEnd)
	sw.Varint(n.statsStart)
	sw.Varint(n.injected)
	sw.Varint(n.flitsInjected)

	sw.Section(secPackets)
	sw.Uvarint(uint64(len(pkts)))
	for _, p := range pkts {
		sw.Varint(p.ID)
		sw.Uvarint(uint64(p.Src))
		sw.Uvarint(uint64(p.Dst))
		sw.Varint(int64(p.Phase))
		sw.Varint(int64(p.Inter))
		sw.Uvarint(uint64(p.DimMask))
		sw.Varint(int64(p.Hops))
		sw.Varint(p.InjectCycle)
		sw.Varint(p.NetworkCycle)
		sw.Bool(p.Measured)
	}

	sw.Section(secTransfers)
	sw.Uvarint(uint64(len(xfers)))
	for _, t := range xfers {
		sw.Uvarint(uint64(t.src))
		sw.Uvarint(uint64(t.dst))
		sw.Varint(int64(t.packets))
		sw.Varint(t.start)
		sw.Varint(int64(t.delivered))
		sw.Varint(t.lastCycle)
		sw.Varint(int64(t.lastHops))
	}
	sw.Uvarint(uint64(len(pairs)))
	for _, pr := range pairs {
		sw.Uvarint(uint64(pr.pkt))
		sw.Uvarint(uint64(pr.xfer))
	}

	sw.Section(secRouters)
	for r := range n.routers {
		rt := &n.routers[r]
		st := rt.rng.State()
		for _, word := range st {
			sw.U64(word)
		}
		n.eachInputVC(rt, func(_, _ int, q *vcq) {
			sw.Uvarint(uint64(q.count))
			for k := int32(0); k < q.count; k++ {
				f := rt.nth(q, k)
				sw.Uvarint(uint64(pktIdx[f.pkt]))
				sw.Bool(f.tail)
			}
			sw.Bool(q.routed)
			sw.Bool(q.headSent)
			if q.routed {
				sw.Uvarint(uint64(q.out >> n.vcShift))
				sw.Uvarint(uint64(q.out & n.vcMask))
			}
		})
		for p := range rt.out {
			op := &rt.out[p]
			switch op.kind {
			case topo.Network:
				for v := 0; v < n.vcs; v++ {
					ov := &rt.ovc[p<<n.vcShift+v]
					sw.Varint(int64(ov.credits))
					sw.Varint(int64(ov.pending))
					if ov.owner != nil {
						sw.Varint(int64(pktIdx[ov.owner]))
					} else {
						sw.Varint(-1)
					}
				}
			case topo.Terminal:
				for v := 0; v < n.vcs; v++ {
					sw.Varint(int64(rt.ovc[p<<n.vcShift+v].pending))
				}
			default:
				continue // Unused ports carry no state
			}
			// The file stores the round-robin pointer in its original
			// request-key encoding, inport*(vcs+1) + vc.
			sw.Varint(int64(op.rr>>n.vcShift)*int64(n.vcs+1) + int64(op.rr&n.vcMask))
			sw.Varint(op.nextFree)
			sw.Varint(op.flitsSent)
		}
	}

	sw.Section(secSources)
	for i := range n.sources {
		s := &n.sources[i]
		st := s.rng.State()
		for _, word := range st {
			sw.U64(word)
		}
		if s.cur != nil {
			sw.Varint(int64(pktIdx[s.cur]))
		} else {
			sw.Varint(-1)
		}
		sw.Varint(int64(s.remaining))
		sw.Uvarint(uint64(s.backlogLen()))
		// The file keeps "no destination yet" as a (0, false) pair.
		s.eachPending(func(a arrival, t *Transfer) {
			sw.Varint(a.ts)
			sw.Varint(int64(max(a.dst, 0)))
			sw.Bool(a.dst >= 0)
			sw.Varint(int64(addXfer(t)))
		})
	}

	sw.Section(secEvents)
	sw.Uvarint(uint64(nev))
	n.eachEvent(func(delta int, kind uint64, tail bool, vc, router, port int32, pkt *Packet) {
		sw.Uvarint(uint64(delta))
		sw.Uvarint(kind)
		sw.Bool(tail)
		sw.Varint(int64(vc))
		sw.Uvarint(uint64(router))
		sw.Varint(int64(port))
		if pkt != nil {
			sw.Varint(int64(pktIdx[pkt]))
		} else {
			sw.Varint(-1)
		}
	})

	sw.Section(secWorkload)
	sw.Bool(wlHas)
	if wlHas {
		sw.String(wlName)
		sw.Bytes(wlState)
	}

	return sw.Close()
}

// Restore rebuilds a Network from a snapshot written by Snapshot. The
// caller supplies the same topology, algorithm and configuration the
// snapshotted network was built with (they are validated against the
// snapshot's digest — restoring onto mismatched structure is an error,
// never a silent misread). Stepping the returned network forward
// produces results bit-identical to stepping the original.
//
// The workload source's configuration is not part of a snapshot — only
// its mutable arrival-process state is. Re-install the source and hooks
// before stepping, as New's callers do: SetSource validates the source
// name against the snapshot and applies the stashed state.
func Restore(rd io.Reader, g *topo.Graph, alg Algorithm, cfg Config) (*Network, error) {
	r, err := snapshot.NewReader(rd)
	if err != nil {
		return nil, err
	}
	n, err := New(g, alg, cfg)
	if err != nil {
		return nil, err
	}

	r.Section(secDigest)
	check := func(what string, got, want int64) {
		if r.Err() == nil && got != want {
			err = fmt.Errorf("sim: snapshot mismatch: %s is %d, this network has %d", what, got, want)
		}
	}
	if name := r.String(); r.Err() == nil && name != n.alg.Name() {
		err = fmt.Errorf("sim: snapshot was taken with algorithm %q, not %q", name, n.alg.Name())
	}
	check("vcs", int64(r.Uvarint()), int64(n.vcs))
	check("vc depth", int64(r.Uvarint()), int64(n.vcDepth))
	if seed := r.U64(); r.Err() == nil && seed != n.cfg.Seed {
		err = fmt.Errorf("sim: snapshot was taken with seed %d, not %d", seed, n.cfg.Seed)
	}
	check("BufPerPort", r.Varint(), int64(n.cfg.BufPerPort))
	check("Speedup", r.Varint(), int64(n.cfg.Speedup))
	check("PacketSize", r.Varint(), int64(n.cfg.PacketSize))
	if age := r.Bool(); r.Err() == nil && age != n.cfg.AgeArbiter {
		err = fmt.Errorf("sim: snapshot AgeArbiter=%v does not match", age)
	}
	check("RouterDelay", r.Varint(), int64(n.cfg.RouterDelay))
	check("router count", int64(r.Uvarint()), int64(len(n.routers)))
	check("node count", int64(r.Uvarint()), int64(g.NumNodes))
	if d := r.U64(); r.Err() == nil && d != g.Digest() {
		err = fmt.Errorf("sim: snapshot topology digest %#x does not match graph %q", d, g.Label)
	}
	check("max latency", r.Varint(), int64(n.maxLat))
	check("calendar length", r.Varint(), int64(n.calLen))
	if r.Err() != nil {
		return nil, r.Err()
	}
	if err != nil {
		return nil, err
	}

	r.Section(secScalars)
	n.cycle = r.Varint()
	n.calPos = int(n.cycle % int64(n.calLen))
	n.nextID = r.Varint()
	n.deliveredTotal = r.Varint()
	n.flitsDelivered = r.Varint()
	n.measCreated = r.Varint()
	n.measDelivered = r.Varint()
	n.measStart = r.Varint()
	n.measEnd = r.Varint()
	n.statsStart = r.Varint()
	n.injected = r.Varint()
	n.flitsInjected = r.Varint()
	if r.Err() == nil && (n.cycle < 0 || n.nextID < 0 || n.deliveredTotal < 0 ||
		n.flitsDelivered < 0 || n.measCreated < 0 || n.measDelivered < 0 ||
		n.injected < 0 || n.flitsInjected < 0) {
		return nil, fmt.Errorf("sim: snapshot has a negative scalar counter")
	}

	maxEvents, maxPackets := n.snapshotCaps()

	r.Section(secPackets)
	npkt := r.Count(maxPackets, "packet")
	pkts := make([]*Packet, npkt)
	for i := 0; i < npkt; i++ {
		p := &Packet{}
		p.ID = r.Varint()
		p.Src = topo.NodeID(r.Count(g.NumNodes-1, "packet source"))
		p.Dst = topo.NodeID(r.Count(g.NumNodes-1, "packet destination"))
		p.Phase = int8(r.Varint())
		p.Inter = int32(r.Varint())
		p.DimMask = uint32(r.Uvarint())
		p.Hops = int(r.Varint())
		p.InjectCycle = r.Varint()
		p.NetworkCycle = r.Varint()
		p.Measured = r.Bool()
		if r.Err() == nil && (p.Inter < -1 || p.Hops < 0) {
			return nil, fmt.Errorf("sim: snapshot packet %d has invalid routing state", i)
		}
		pkts[i] = p
	}
	pktAt := func(what string) *Packet {
		i := r.Count(npkt-1, what)
		if r.Err() != nil {
			return nil
		}
		return pkts[i]
	}
	optPkt := func(what string) *Packet {
		v := r.Varint()
		if r.Err() != nil || v == -1 {
			return nil
		}
		if v < 0 || v >= int64(npkt) {
			if r.Err() == nil {
				err = fmt.Errorf("sim: snapshot %s index %d out of range", what, v)
			}
			return nil
		}
		return pkts[v]
	}

	r.Section(secTransfers)
	nx := r.Count(maxPackets+(1<<20), "transfer")
	xfers := make([]*Transfer, 0, min(nx, 4096))
	for i := 0; i < nx; i++ {
		t := &Transfer{}
		t.src = topo.NodeID(r.Count(g.NumNodes-1, "transfer source"))
		t.dst = topo.NodeID(r.Count(g.NumNodes-1, "transfer destination"))
		t.packets = int(r.Varint())
		t.start = r.Varint()
		t.delivered = int(r.Varint())
		t.lastCycle = r.Varint()
		t.lastHops = int(r.Varint())
		if r.Err() != nil {
			return nil, r.Err()
		}
		xfers = append(xfers, t)
	}
	npairs := r.Count(npkt, "live transfer pair")
	for i := 0; i < npairs; i++ {
		p := pktAt("transfer packet")
		x := r.Count(nx-1, "transfer")
		if r.Err() != nil {
			break
		}
		n.registerTransfer(p, xfers[x])
	}

	r.Section(secRouters)
	for ri := range n.routers {
		rt := &n.routers[ri]
		var st [4]uint64
		for w := range st {
			st[w] = r.U64()
		}
		rt.rng.SetState(st)
		n.eachInputVC(rt, func(p, v int, q *vcq) {
			cnt := r.Count(int(q.cap), "buffered flit")
			for k := 0; k < cnt; k++ {
				pk := pktAt("buffered packet")
				tail := r.Bool()
				if r.Err() != nil {
					return
				}
				rt.push(q, flit{pkt: pk, tail: tail})
			}
			q.routed = r.Bool()
			q.headSent = r.Bool()
			if q.routed {
				port := r.Count(len(rt.out)-1, "routed output port")
				vc := r.Count(n.vcs-1, "routed output VC")
				q.out = int32(port)<<n.vcShift | int32(vc)
			}
			if q.count != 0 {
				n.wakeVC(rt, int32(p)<<n.vcShift|int32(v))
			}
		})
		if r.Err() != nil {
			return nil, r.Err()
		}
		for p := range rt.out {
			op := &rt.out[p]
			// The port's queue estimate is not in the file: it is rebuilt
			// as the sum of the VCs' pending counts, each at most MaxInt32.
			var psum int64
			switch op.kind {
			case topo.Network:
				for v := 0; v < n.vcs; v++ {
					ov := &rt.ovc[p<<n.vcShift+v]
					credits, pending := r.Varint(), r.Varint()
					ov.owner = optPkt("VC owner")
					if r.Err() == nil && (credits < 0 || credits > int64(n.vcDepth) || pending < 0 || pending > math.MaxInt32) {
						return nil, fmt.Errorf("sim: snapshot router %d out %d vc %d has invalid flow-control state", ri, p, v)
					}
					ov.credits, ov.pending = int32(credits), int32(pending)
					psum += pending
				}
			case topo.Terminal:
				for v := 0; v < n.vcs; v++ {
					pending := r.Varint()
					if r.Err() == nil && (pending < 0 || pending > math.MaxInt32) {
						return nil, fmt.Errorf("sim: snapshot router %d out %d vc %d has invalid pending count", ri, p, v)
					}
					rt.ovc[p<<n.vcShift+v].pending = int32(pending)
					psum += pending
				}
			default:
				continue
			}
			if r.Err() == nil && psum > math.MaxInt32 {
				return nil, fmt.Errorf("sim: snapshot router %d out %d has invalid flow-control state: queue estimate %d overflows", ri, p, psum)
			}
			rt.psum[p] = int32(psum)
			// Back from the file's inport*(vcs+1) + vc encoding to a
			// request key.
			rr := r.Varint()
			if r.Err() == nil && (rr < 0 || rr/int64(n.vcs+1) >= int64(len(rt.in)) || rr%int64(n.vcs+1) >= int64(n.vcs)) {
				return nil, fmt.Errorf("sim: snapshot router %d out %d has invalid round-robin pointer %d", ri, p, rr)
			}
			op.rr = int32(rr/int64(n.vcs+1))<<n.vcShift | int32(rr%int64(n.vcs+1))
			op.nextFree = r.Varint()
			op.flitsSent = r.Varint()
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
	}

	r.Section(secSources)
	for i := range n.sources {
		s := &n.sources[i]
		var st [4]uint64
		for w := range st {
			st[w] = r.U64()
		}
		s.rng.SetState(st)
		s.cur = optPkt("mid-injection packet")
		remaining := r.Varint()
		if r.Err() == nil && (remaining < 0 || remaining > int64(n.cfg.PacketSize)) {
			return nil, fmt.Errorf("sim: snapshot source %d has invalid flit remainder %d", i, remaining)
		}
		s.remaining = int32(remaining)
		nb := r.Count(1<<30, "backlog arrival")
		for k := 0; k < nb; k++ {
			ts := r.Varint()
			dst := r.Varint()
			hasDst := r.Bool()
			xi := r.Varint()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if hasDst && (dst < 0 || dst >= int64(g.NumNodes)) || !hasDst && dst != 0 {
				return nil, fmt.Errorf("sim: snapshot source %d backlog destination %d out of range", i, dst)
			}
			if !hasDst {
				dst = -1
			}
			if xi >= int64(nx) {
				return nil, fmt.Errorf("sim: snapshot source %d backlog transfer index %d out of range", i, xi)
			}
			if xi >= 0 {
				s.pushTransfer(ts, int32(dst), xfers[xi])
			} else {
				s.push(arrival{ts: ts, dst: int32(dst)})
			}
		}
		if s.cur != nil || !s.empty() {
			n.wakeSource(i)
		}
	}

	r.Section(secEvents)
	nev := r.Count(maxEvents, "event")
	for k := 0; k < nev; k++ {
		delta := r.Count(n.calLen-1, "event due delta")
		kind := r.Uvarint()
		tail := r.Bool()
		vc := r.Varint()
		router := r.Count(len(n.routers)-1, "event router")
		port := r.Varint()
		pkt := optPkt("event packet")
		if r.Err() != nil {
			return nil, r.Err()
		}
		if err != nil {
			return nil, err
		}
		rt := &n.routers[router]
		s := n.slot(delta)
		switch kind {
		case evFlit:
			if port < 0 || port >= int64(len(rt.in)) ||
				vc < 0 || vc >= int64(n.inVCs(&rt.in[port])) || pkt == nil {
				return nil, fmt.Errorf("sim: snapshot flit event %d is malformed", k)
			}
			in := uint32(port)<<n.vcShift<<1 | uint32(vc)<<1
			if tail {
				in |= 1
			}
			s.addFlit(&n.arena, flitEv{pkt: pkt, router: int32(router), in: in})
		case evCredit:
			if port < 0 || port >= int64(len(rt.out)) ||
				rt.out[port].kind != topo.Network ||
				vc < 0 || vc >= int64(n.vcs) || pkt != nil {
				return nil, fmt.Errorf("sim: snapshot credit event %d is malformed", k)
			}
			s.addCredit(&n.arena, (rt.outBase+int32(port))<<n.vcShift+int32(vc))
		case evDeliver:
			// vc carries the scheduling delay for deliveries; nothing reads
			// it back but Snapshot, so bound it to the calendar ring.
			if port < 0 || port >= int64(len(rt.out)) ||
				rt.out[port].kind != topo.Terminal ||
				vc < 0 || vc >= int64(n.calLen) || pkt == nil {
				return nil, fmt.Errorf("sim: snapshot delivery event %d is malformed", k)
			}
			dt := int32(vc) << 1
			if tail {
				dt |= 1
			}
			s.addDeliver(&n.arena, deliverEv{pkt: pkt, node: rt.out[port].node, dt: dt})
		default:
			return nil, fmt.Errorf("sim: snapshot event %d has unknown kind %d", k, kind)
		}
	}
	if err != nil {
		return nil, err
	}

	r.Section(secWorkload)
	if r.Bool() {
		name := r.String()
		state := r.Bytes()
		if r.Err() != nil {
			return nil, r.Err()
		}
		n.pendingWl = &pendingWorkload{name: name, state: state}
	}

	if err := r.Finish(); err != nil {
		return nil, err
	}
	return n, nil
}
