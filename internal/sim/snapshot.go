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
// packets, worklists, RNG streams, harness counters — into the
// internal/snapshot container; Restore rebuilds an equivalent Network
// such that restore-then-run is bit-identical to running the original
// straight through.
//
// Transfers (StartTransfer) are not written: no caller of Restore holds
// a handle to read, so a transfer's queued arrivals and live packets
// are written as ordinary ones, with the same endpoints and timestamps,
// and deliver exactly as they would have.
//
// The format is canonical: identical state always serialises to
// identical bytes. Two orderings make that hold:
//
//   - Packets are indexed in a fixed collection order (input buffers,
//     then VC owners, then events, then source heads), so which slab
//     handle a packet holds never leaks into the stream.
//   - Events are written by ascending due cycle, each calendar slot's
//     three lists in the order processEvents drains them: flit
//     arrivals, then credit returns, then deliveries, each list in its
//     scheduling order.
//
// Event records, round-robin pointers and input-VC keys are stored in
// the core's own encodings (network-wide output-VC index, port<<vcShift
// | vc), which the digest's VC count fixes.
//
// Packet IDs are opaque: a live packet's ID only has to be below nextID,
// which the file carries.
//
// Restored state that is provably empty between Steps (the greedy fold
// list, request lists, arena freelists) is simply recomputed or left at
// its zero value.

// Snapshot section tags, in stream order.
const (
	secDigest uint64 = iota + 1
	secScalars
	secPackets
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

// Snapshot writes the network's complete state to w in the
// internal/snapshot container format. It must be called between Steps
// (never from inside a hook). Attached hook sets are observers, not
// simulation state, so they do not enter the snapshot: an observed
// network writes the same bytes as its unobserved twin, and on Restore
// each observer attached afresh starts from the restored network.
func (n *Network) Snapshot(w io.Writer) error {
	if n.closed {
		return fmt.Errorf("sim: cannot snapshot a closed network")
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

	// Index every live packet in collection order, keyed by handle. The
	// order is a pure function of simulation state, so identical states
	// yield identical indices (and identical bytes) whichever handles the
	// packets hold.
	idx := make([]int32, n.arena.next) // by handle: 1 + collection index, 0 = not collected
	var pkts []int32
	addPkt := func(h int32) {
		if idx[h] == 0 {
			pkts = append(pkts, h)
			idx[h] = int32(len(pkts))
		}
	}
	pktIdx := func(h int32) int64 { return int64(idx[h]) - 1 }
	for r := range n.routers {
		rt := &n.routers[r]
		n.eachInputVC(rt, func(_, _ int, q *vcq) {
			for k := int32(0); k < q.count; k++ {
				addPkt(rt.nth(q, k).pkt())
			}
		})
		for p := range rt.out {
			for v := 0; v < n.vcs; v++ {
				if o := rt.ovc[p<<n.vcShift+v].owner; o != 0 {
					addPkt(o)
				}
			}
		}
	}
	for delta := range n.cal {
		s := n.slot(delta)
		for _, ev := range s.flits {
			addPkt(ev.f.pkt())
		}
		for _, ev := range s.delivers {
			addPkt(ev.f.pkt())
		}
	}
	for i := range n.sources {
		if n.sources[i].cur != 0 {
			addPkt(n.sources[i].cur)
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
	for _, h := range pkts {
		p := n.arena.pkt(h)
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
				sw.Uvarint(uint64(pktIdx(f.pkt())))
				sw.Bool(f.tail())
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
					if ov.owner != 0 {
						sw.Varint(pktIdx(ov.owner))
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
			sw.Uvarint(uint64(op.rr))
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
		if s.cur != 0 {
			sw.Varint(pktIdx(s.cur))
		} else {
			sw.Varint(-1)
		}
		sw.Varint(int64(s.remaining))
		sw.Uvarint(uint64(s.backlogLen()))
		s.eachPending(func(a arrival) {
			sw.Varint(a.ts)
			sw.Varint(int64(a.dst))
		})
	}

	sw.Section(secEvents)
	for delta := range n.cal {
		s := n.slot(delta)
		sw.Uvarint(uint64(len(s.flits)))
		for _, ev := range s.flits {
			sw.Uvarint(uint64(ev.router))
			sw.Uvarint(uint64(ev.ivc))
			sw.Uvarint(uint64(pktIdx(ev.f.pkt())))
			sw.Bool(ev.f.tail())
		}
		sw.Uvarint(uint64(len(s.credits)))
		for _, ev := range s.credits {
			sw.Uvarint(uint64(ev.ovc))
		}
		sw.Uvarint(uint64(len(s.delivers)))
		for _, ev := range s.delivers {
			sw.Uvarint(uint64(ev.node))
			sw.Uvarint(uint64(pktIdx(ev.f.pkt())))
			sw.Bool(ev.f.tail())
		}
	}

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
	pkts := make([]int32, npkt) // handles, in the file's packet order
	for i := 0; i < npkt; i++ {
		pkts[i] = n.arena.allocPacket()
		p := n.arena.pkt(pkts[i])
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
	}
	pktAt := func(what string) int32 {
		i := r.Count(npkt-1, what)
		if r.Err() != nil {
			return 0
		}
		return pkts[i]
	}
	optPkt := func(what string) int32 {
		v := r.Varint()
		if r.Err() != nil || v == -1 {
			return 0
		}
		if v < 0 || v >= int64(npkt) {
			if r.Err() == nil {
				err = fmt.Errorf("sim: snapshot %s index %d out of range", what, v)
			}
			return 0
		}
		return pkts[v]
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
				rt.push(q, mkFlit(pk, tail))
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
			rr := r.Uvarint()
			if r.Err() == nil && (rr>>n.vcShift >= uint64(len(rt.in)) || int32(rr)&n.vcMask >= int32(n.vcs)) {
				return nil, fmt.Errorf("sim: snapshot router %d out %d has invalid round-robin pointer %d", ri, p, rr)
			}
			op.rr = int32(rr)
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
			dst := r.Varint() // -1: drawn when the packet materializes
			if r.Err() != nil {
				return nil, r.Err()
			}
			if dst < -1 || dst >= int64(g.NumNodes) {
				return nil, fmt.Errorf("sim: snapshot source %d backlog destination %d out of range", i, dst)
			}
			s.push(arrival{ts: ts, dst: int32(dst)})
		}
		if s.cur != 0 || !s.empty() {
			n.wakeSource(i)
		}
	}

	r.Section(secEvents)
	budget := maxEvents // events left for the remaining lists
	count := func(what string) int {
		c := r.Count(budget, what)
		budget -= c
		return c
	}
	for delta := 0; delta < n.calLen; delta++ {
		s := n.slot(delta)
		for k, nf := 0, count("flit event"); k < nf; k++ {
			router := r.Count(len(n.routers)-1, "flit event router")
			rt := &n.routers[router]
			ivc := int32(r.Count(len(rt.in)<<n.vcShift-1, "flit event input VC"))
			pkt := pktAt("flit event packet")
			tail := r.Bool()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if ivc&n.vcMask >= int32(n.inVCs(&rt.in[ivc>>n.vcShift])) {
				return nil, fmt.Errorf("sim: snapshot flit event to router %d input VC %d is malformed", router, ivc)
			}
			s.addFlit(&n.arena, flitEv{router: int32(router), ivc: ivc, f: mkFlit(pkt, tail)})
		}
		for k, nc := 0, count("credit event"); k < nc; k++ {
			ovc := int32(r.Count(len(n.outs)<<n.vcShift-1, "credit event output VC"))
			if r.Err() != nil {
				return nil, r.Err()
			}
			if n.outs[ovc>>n.vcShift].kind != topo.Network || ovc&n.vcMask >= int32(n.vcs) {
				return nil, fmt.Errorf("sim: snapshot credit event to output VC %d is malformed", ovc)
			}
			s.addCredit(&n.arena, ovc)
		}
		for k, nd := 0, count("delivery event"); k < nd; k++ {
			node := r.Count(g.NumNodes-1, "delivery event node")
			pkt := pktAt("delivery event packet")
			tail := r.Bool()
			if r.Err() != nil {
				return nil, r.Err()
			}
			s.addDeliver(&n.arena, deliverEv{f: mkFlit(pkt, tail), node: int32(node)})
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
