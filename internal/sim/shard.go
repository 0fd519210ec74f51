package sim

import (
	"fmt"
	"sync"
)

// This file implements the deterministic sharded-parallel cycle core
// (DESIGN.md §13). Routers are partitioned into contiguous ranges, one
// shard per worker; each shard owns its routers' full per-cycle state:
// calendar slots, arena, active worklists, and the RouterView handed to
// Route. Because every channel has latency >= 1 cycle (topo.Graph
// enforces it), a flit granted in cycle c cannot influence any router
// before cycle c+1 — a one-cycle conservative lookahead — so shards only
// need to exchange events at per-cycle barriers:
//
//	phase A (parallel): drain inboxes, apply the cycle's flit arrivals
//	                    and credit returns; deliveries are deferred.
//	barrier:            the coordinator replays deferred deliveries in
//	                    exact sequential order (mergeDeliveries).
//	phase B (parallel): inject, route allocation, switch allocation.
//	barrier:            the coordinator applies deferred materialization
//	                    hooks, then advances the cycle.
//
// Determinism argument (why results are bit-identical to workers=1):
//   - Cross-shard events are only flit arrivals and credit returns.
//     Within one calendar slot their processing order is irrelevant: at
//     most one flit per (router, input port, VC) arrives per cycle (the
//     upstream channel serializes on nextFree), so flit pushes hit
//     distinct FIFOs, and credit returns are commutative increments.
//     Each target drains its inboxes in ascending source-shard order
//     anyway, so even the slot contents are deterministic.
//   - Deliveries are always shard-local (a terminal output of the
//     shard's own router) and carry their scheduling delay; the merge
//     replays them ordered by (scheduling cycle, shard), which equals
//     the order the sequential calendar slot would hold them in:
//     sequential slots append chronologically, and within one scheduling
//     cycle switch allocation emits in ascending router order — which is
//     ascending shard order for contiguous partitions.
//   - Packet IDs in parallel mode are keyed (materialization cycle,
//     source index) — the exact order the sequential counter assigns
//     them in — so every age-arbiter tie-break compares identically.
//   - All RNG streams are per-router or per-source and owned by exactly
//     one shard; generation and injection hooks run on the caller thread
//     between phases.
//
// Each shard's arena is private: events recycle within the shard, and
// delivered packets return to the arena of the shard owning their source
// so steady-state runs stay allocation-free at every worker count.

// phase identifiers sent over a worker's start channel.
const (
	phaseEvents uint8 = iota // drain inboxes + processEvents
	phaseAlloc               // inject + route + switch allocation
)

// xflit and xcredit are cross-shard events staged in an outbox: the event
// plus its absolute due cycle (the outbox cannot rely on slot position
// for time).
type xflit struct {
	at int64
	ev flitEv
}

type xcredit struct {
	at  int64
	ovc int32
}

// matEntry is one deferred packet materialization (parallel mode):
// transfer registration and the onMaterialize callback run at the
// barrier, on the coordinator, in sequential order.
type matEntry struct {
	pkt  *Packet
	xfer *Transfer
}

// shard owns a contiguous range of routers [r0,r1) and their attached
// sources [s0,s1), plus all per-cycle scheduler state for them.
type shard struct {
	n   *Network
	idx int
	r0  int
	r1  int
	s0  int
	s1  int

	cal   []calSlot
	arena arena
	view  RouterView

	// activeR bit (r - r0) is set while router r holds a buffered flit;
	// activeS bit (i - s0) while source i has injection work. Local
	// indexing keeps shards from sharing bitset words.
	activeR []uint64
	activeS []uint64

	// outFlits[t] and outCredits[t] stage events for shard t, written
	// during this shard's phases and drained by t at the start of its next
	// phase A. nil for the bootstrap shard (sequential mode never stages).
	outFlits   [][]xflit
	outCredits [][]xcredit

	// pendDel is this cycle's deferred delivery list — the due slot's own
	// list, in slot order (sorted by scheduling cycle); delCur is the
	// merge cursor.
	pendDel []deliverEv
	delCur  int

	// mat collects this cycle's deferred materializations in source order.
	mat []matEntry

	// start receives phase commands for worker shards (nil for shard 0,
	// which the coordinator drives directly).
	start chan uint8

	injected      int64
	flitsInjected int64
}

func newShard(n *Network, idx, r0, r1, s0, s1 int) *shard {
	sh := &shard{
		n: n, idx: idx, r0: r0, r1: r1, s0: s0, s1: s1,
		cal:     make([]calSlot, n.calLen),
		activeR: make([]uint64, (r1-r0+63)/64),
		activeS: make([]uint64, (s1-s0+63)/64),
	}
	sh.view.n = n
	return sh
}

// done signals phase completion from worker shards; wg tracks their
// goroutines for Close.
type workerPool struct {
	done chan struct{}
	wg   sync.WaitGroup
}

// SetWorkers requests that the cycle core run across k worker goroutines
// (k <= 1 selects the sequential scheduler, the default). It must be
// called before the first Step: the partition happens lazily at that
// point and is frozen afterwards.
//
// The effective worker count can be lower than requested: it is clamped
// to the router count, and networks with probes, a tracer, or sanitizer
// checks attached — or in stepAll debug mode, or whose terminals are not
// contiguous per router — fall back to the sequential scheduler, which
// is observationally identical.
//
// A network partitioned across workers owns goroutines; call Close when
// done with it.
func (n *Network) SetWorkers(k int) error {
	if n.started {
		return fmt.Errorf("sim: SetWorkers must be called before the first Step")
	}
	if k < 0 {
		return fmt.Errorf("sim: worker count must be >= 0, got %d", k)
	}
	if k == 0 {
		k = 1
	}
	n.workers = k
	return nil
}

// Workers returns the effective worker (shard) count: the requested
// count before the first Step, the frozen partition size after.
func (n *Network) Workers() int {
	if n.started {
		return len(n.sh)
	}
	if n.workers < 1 {
		return 1
	}
	return n.workers
}

// Close stops the worker goroutines of a partitioned network. It is
// idempotent and a no-op for sequential networks. Step must not be
// called after Close.
func (n *Network) Close() {
	if n.closed {
		return
	}
	n.closed = true
	for _, sh := range n.sh[1:] {
		if sh.start != nil {
			close(sh.start)
		}
	}
	n.pool.wg.Wait()
}

// startup freezes the partition at the first Step. For a freshly built
// network the bootstrap calendar and router worklists are empty (events
// and packets only exist inside Step); a network rebuilt by Restore
// carries live calendar events, worklist bits and counters, all of which
// partition() migrates to their owning shards.
func (n *Network) startup() {
	n.started = true
	k := n.workers
	if k <= 1 {
		return
	}
	// Instrumentation hooks run unsynchronized inside the pipeline; the
	// sequential scheduler is observationally identical, so fall back.
	if n.probes != nil || n.tracer != nil || n.checks != nil || n.stepAll {
		return
	}
	if k > len(n.routers) {
		k = len(n.routers)
	}
	// Sources must partition contiguously alongside their routers; every
	// shipped topology attaches terminals in router order, but fall back
	// rather than mis-partition if one ever does not.
	nr := n.g.NodeRouter
	for i := 1; i < len(nr); i++ {
		if nr[i] < nr[i-1] {
			return
		}
	}
	if k <= 1 {
		return
	}
	n.partition(k)
}

// partition replaces the bootstrap shard with k shards over contiguous
// router ranges and spawns the worker pool.
func (n *Network) partition(k int) {
	boot := n.sh[0]
	R, N := len(n.routers), n.g.NumNodes
	n.shardOf = make([]int32, R)
	n.shardOfNode = make([]int32, N)
	n.sh = make([]*shard, k)
	node := 0
	for i := 0; i < k; i++ {
		r0, r1 := i*R/k, (i+1)*R/k
		s0 := node
		for node < N && int(n.g.NodeRouter[node]) < r1 {
			node++
		}
		sh := newShard(n, i, r0, r1, s0, node)
		sh.outFlits = make([][]xflit, k)
		sh.outCredits = make([][]xcredit, k)
		n.sh[i] = sh
		for r := r0; r < r1; r++ {
			n.shardOf[r] = int32(i)
		}
		for s := s0; s < node; s++ {
			n.shardOfNode[s] = int32(i)
		}
	}
	// Scatter the pre-Step source wakeups (SeedBatch, traces, transfers,
	// generation before the first Step) into the new shards.
	for i := 0; i < N; i++ {
		if boot.activeS[i>>6]&(1<<(uint(i)&63)) != 0 {
			sh := n.sh[n.shardOfNode[i]]
			li := uint(i - sh.s0)
			sh.activeS[li>>6] |= 1 << (li & 63)
		}
	}
	// Migrate restored state (sim.Restore rebuilds into the bootstrap
	// shard): router worklist bits, pending calendar events (per-slot
	// order preserved, so the merge ordering argument above still holds),
	// and lifetime injection counters, which stay summed on shard 0.
	for r := 0; r < R; r++ {
		if boot.activeR[r>>6]&(1<<(uint(r)&63)) != 0 {
			sh := n.sh[n.shardOf[r]]
			lr := uint(r - sh.r0)
			sh.activeR[lr>>6] |= 1 << (lr & 63)
		}
	}
	for i := range boot.cal {
		bs := &boot.cal[i]
		bs.eachArrival(func(fe *flitEv, ce *creditEv) {
			if fe != nil {
				sh := n.sh[n.shardOf[fe.router]]
				sh.cal[i].addFlit(&sh.arena, *fe)
				return
			}
			sh := n.sh[n.shardOf[n.outs[ce.ovc>>n.vcShift].router]]
			sh.cal[i].addCredit(&sh.arena, ce.ovc)
		})
		for _, ev := range bs.delivers {
			sh := n.sh[n.shardOf[n.g.EjRouter[ev.node]]]
			sh.cal[i].addDeliver(&sh.arena, ev)
		}
	}
	n.sh[0].injected = boot.injected
	n.sh[0].flitsInjected = boot.flitsInjected
	n.par = true
	n.pool.done = make(chan struct{}, k-1)
	for _, sh := range n.sh[1:] {
		sh.start = make(chan uint8, 1)
		n.pool.wg.Add(1)
		go n.worker(sh)
	}
}

// worker drives one shard: run the commanded phase, signal done, repeat
// until the start channel closes. The channel operations provide the
// happens-before edges between the coordinator's cycle advance and the
// shard's reads of n.cycle.
func (n *Network) worker(sh *shard) {
	defer n.pool.wg.Done()
	for ph := range sh.start {
		if ph == phaseEvents {
			sh.processEvents()
		} else {
			sh.phaseAlloc()
		}
		n.pool.done <- struct{}{}
	}
}

// phaseAlloc is the second half of a parallel cycle: injection and the
// allocation pipeline, all shard-local (cross-shard effects stage into
// outboxes).
func (sh *shard) phaseAlloc() {
	sh.inject()
	sh.routeAllocate()
	sh.switchAllocate()
}

// stepParallel advances one cycle under the barrier scheduler. The
// caller thread doubles as shard 0's worker and as the coordinator for
// the two serial windows (delivery merge, materialization hooks).
func (n *Network) stepParallel() {
	rest := n.sh[1:]
	for _, sh := range rest {
		sh.start <- phaseEvents
	}
	n.sh[0].processEvents()
	for range rest {
		<-n.pool.done
	}
	n.mergeDeliveries()
	for _, sh := range rest {
		sh.start <- phaseAlloc
	}
	n.sh[0].phaseAlloc()
	for range rest {
		<-n.pool.done
	}
	n.applyMaterialized()
	n.advanceCycle()
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

// drainInboxes moves events staged for this shard into its calendar, in
// ascending source-shard order. Runs at the start of phase A: outboxes
// are only written during phases, and each (source, target) box is
// touched by exactly one shard per phase, so the barrier alternation
// makes this race-free.
func (sh *shard) drainInboxes() {
	n := sh.n
	for _, src := range n.sh {
		if box := src.outFlits[sh.idx]; len(box) > 0 {
			for i := range box {
				sh.slot(int(box[i].at-n.cycle)).addFlit(&sh.arena, box[i].ev)
			}
			src.outFlits[sh.idx] = box[:0]
		}
		if box := src.outCredits[sh.idx]; len(box) > 0 {
			for i := range box {
				sh.slot(int(box[i].at-n.cycle)).addCredit(&sh.arena, box[i].ovc)
			}
			src.outCredits[sh.idx] = box[:0]
		}
	}
}

// mergeDeliveries replays the cycle's deferred ejections in sequential
// order. Each shard's pendDel is sorted by scheduling cycle (calendar
// slots append chronologically); a (scheduling cycle, shard)-ordered
// k-way merge therefore reproduces the sequential slot order exactly.
// Runs on the coordinator between the phase barriers.
func (n *Network) mergeDeliveries() {
	for {
		best := -1
		var bestAt int64
		for i, sh := range n.sh {
			if sh.delCur >= len(sh.pendDel) {
				continue
			}
			// The scheduling cycle is now minus the delay stamped at
			// schedule time.
			at := n.cycle - sh.pendDel[sh.delCur].delay()
			if best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best < 0 {
			break
		}
		sh := n.sh[best]
		ev := &sh.pendDel[sh.delCur]
		sh.delCur++
		n.deliverEvent(n.sh[n.shardOfNode[ev.pkt.Src]], ev)
	}
	for _, sh := range n.sh {
		sh.pendDel = nil
		sh.delCur = 0
	}
}

// applyMaterialized runs the deferred transfer registrations and
// materialization callbacks in sequential (shard, source) order — the
// order injectSource visits sources ascending within each shard.
func (n *Network) applyMaterialized() {
	for _, sh := range n.sh {
		if len(sh.mat) == 0 {
			continue
		}
		for i := range sh.mat {
			m := &sh.mat[i]
			if m.xfer != nil {
				n.registerTransfer(m.pkt, m.xfer)
			}
			if n.onMaterialize != nil {
				n.onMaterialize(m.pkt)
			}
			*m = matEntry{}
		}
		sh.mat = sh.mat[:0]
	}
}

// shardFor returns the shard owning router r.
func (n *Network) shardFor(r int32) *shard {
	if !n.par {
		return n.sh[0]
	}
	return n.sh[n.shardOf[r]]
}

// shardForNode returns the shard owning terminal i.
func (n *Network) shardForNode(i int) *shard {
	if !n.par {
		return n.sh[0]
	}
	return n.sh[n.shardOfNode[i]]
}
