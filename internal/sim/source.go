package sim

import (
	"fmt"

	"flatnet/internal/rng"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// source is one terminal's packet generator. Arrivals are recorded as
// timestamps only; the packet itself (including its destination draw) is
// materialized when it reaches the head of the source queue and space
// exists in the router's terminal input buffer. For stochastic patterns
// this is statistically identical to drawing at arrival time and keeps
// memory proportional to backlog length, not packet size.
//
// The backlog of pending arrivals is a FIFO of segments: hd[head:] holds
// the oldest arrivals, more.segs the segments behind it in order, and
// the last segment of all is the tail that push appends to. Segments are
// never copied or regrown: a full tail gets a new segment behind it,
// twice its size (4 entries up to 1024), and a drained head segment
// becomes the spare the next growth reuses. So a saturated source, which
// queues one arrival per offered packet for the whole run, allocates at
// most twice its final backlog, once; a source whose short backlog never
// quite drains alternates between two small segments; and a source that
// does drain keeps refilling the one segment it has. An empty backlog is
// len(hd) == 0.
//
// A source is 64 bytes, one cache line (TestHotLayoutSizes); everything
// only a long or transfer-carrying backlog needs lives behind more.
type source struct {
	rng *rng.Source

	// cur is the packet currently streaming its flits into the terminal
	// input buffer; remaining counts its flits yet to inject.
	cur *Packet

	hd   []arrival
	more *overflow // nil until the backlog outgrows hd or carries a transfer
	head int32

	remaining int32

	// router and ivc address the terminal input VC this source injects
	// into. The source's node is its index in Network.sources.
	router int32
	ivc    int32
}

// arrival is one generated-but-not-yet-materialized packet. Pattern-based
// arrivals draw their destination at materialization time; trace-based
// and transfer arrivals carry it explicitly.
//
// The struct is 16 bytes and holds no pointer, so the runtime allocates
// backlog segments as noscan memory: the collector never marks them and
// stores into them need no write barrier. That is why a transfer arrival
// carries a flag and not its *Transfer (see overflow.runs).
type arrival struct {
	ts   int64
	dst  int32 // destination node; negative means "draw at materialization"
	xfer bool  // credited to a transfer: the oldest unfinished run of overflow.runs
}

// Segment sizes, in arrivals. The smallest is one cache line, so an idle
// terminal costs 64 bytes; the cap keeps the directory of a long backlog
// short (one entry per 16 kB) without holding a drained source at more
// than two such segments. Fixed 2 kB segments were measured and lost:
// core_ur -8 %, core_4k_par -10 % and +43 % RSS (DESIGN.md §10).
const (
	minSegment = 4
	maxSegment = 1024
)

// overflow is the part of a source's backlog that does not fit its
// 64-byte header.
type overflow struct {
	segs  [][]arrival // segments behind source.hd, oldest first; the last is the tail
	spare []arrival   // the most recently drained segment, empty, for the next growth

	// runs[rh:] are the transfers with arrivals still in this backlog,
	// oldest first. The arrivals of one StartTransfer are contiguous and
	// identical, so the backlog stores a flag per arrival and the handle
	// once per run; a run is dropped, and its handle released, when its
	// last arrival materializes.
	runs []xferRun
	rh   int
}

type xferRun struct {
	t    *Transfer
	left int // arrivals of t still queued
}

func (s *source) overflow() *overflow {
	if s.more == nil {
		s.more = &overflow{}
	}
	return s.more
}

func (s *source) empty() bool { return len(s.hd) == 0 }

func (s *source) backlogLen() int {
	n := len(s.hd) - int(s.head)
	if s.more != nil {
		for _, seg := range s.more.segs {
			n += len(seg)
		}
	}
	return n
}

func (s *source) push(a arrival) {
	tail := &s.hd
	if o := s.more; o != nil && len(o.segs) > 0 {
		tail = &o.segs[len(o.segs)-1]
	}
	if len(*tail) == cap(*tail) {
		tail = s.grow(cap(*tail))
	}
	*tail = append(*tail, a)
}

// grow starts a new tail segment behind a full one of the given size (0
// on a source's first arrival) and returns it.
func (s *source) grow(full int) *[]arrival {
	var seg []arrival
	if o := s.more; o != nil && o.spare != nil {
		seg, o.spare = o.spare, nil
	} else {
		seg = make([]arrival, 0, min(max(2*full, minSegment), maxSegment))
	}
	if full == 0 {
		s.hd = seg
		return &s.hd
	}
	o := s.overflow()
	o.segs = append(o.segs, seg)
	return &o.segs[len(o.segs)-1]
}

func (s *source) pushTimestamp(t int64) { s.push(arrival{ts: t, dst: -1}) }

// pushArrival enqueues one pattern arrival at source i and wakes it —
// the single-packet injection hook the timing tests use.
func (n *Network) pushArrival(i int, ts int64) {
	n.sources[i].pushTimestamp(ts)
	n.wakeSource(i)
}

func (s *source) pushTraced(t int64, dst topo.NodeID) {
	s.push(arrival{ts: t, dst: int32(dst)})
}

// pushTransfer enqueues one arrival of transfer t, extending t's run if
// it is the newest one. (Runs are consumed by flagged arrivals in order,
// so merging two runs of one transfer never changes who is credited.)
func (s *source) pushTransfer(ts int64, dst int32, t *Transfer) {
	o := s.overflow()
	if k := len(o.runs); k > o.rh && o.runs[k-1].t == t {
		o.runs[k-1].left++
	} else {
		o.runs = append(o.runs, xferRun{t: t, left: 1})
	}
	s.push(arrival{ts: ts, dst: dst, xfer: true})
}

func (s *source) peekTS() int64 { return s.hd[s.head].ts }

// pop sits exactly at the inliner's budget (the named result is part of
// that): check `go build -gcflags=-m` after touching it.
func (s *source) pop() (a arrival) {
	a = s.hd[s.head]
	if s.head++; int(s.head) == len(s.hd) {
		s.retireHead()
	}
	return a
}

// retireHead replaces the drained head segment with the next one, keeping
// it as the spare; with no segment behind it the backlog is empty and the
// segment restarts. Outlined so that pop itself inlines into injectSource.
//
//go:noinline
func (s *source) retireHead() {
	s.head = 0
	o := s.more
	if o == nil || len(o.segs) == 0 {
		s.hd = s.hd[:0]
		return
	}
	o.spare = s.hd[:0]
	s.hd = o.segs[0]
	k := copy(o.segs, o.segs[1:])
	o.segs[k] = nil
	o.segs = o.segs[:k]
}

// popTransfer returns the transfer the flagged arrival just popped is
// credited to, and releases the handle with the run's last arrival.
func (s *source) popTransfer() *Transfer {
	o := s.more
	r := &o.runs[o.rh]
	t := r.t
	if r.left--; r.left == 0 {
		*r = xferRun{}
		// Slide the live runs down once half the slice is spent, so a
		// source that always has a transfer queued stays bounded.
		if o.rh++; 2*o.rh >= len(o.runs) {
			k := copy(o.runs, o.runs[o.rh:])
			clear(o.runs[k:])
			o.runs, o.rh = o.runs[:k], 0
		}
	}
	return t
}

// eachPending visits the backlog oldest first, with the transfer each
// arrival is credited to (nil for most).
func (s *source) eachPending(visit func(a arrival, t *Transfer)) {
	run, used := 0, 0
	walk := func(seg []arrival) {
		for _, a := range seg {
			var t *Transfer
			if a.xfer {
				r := &s.more.runs[s.more.rh+run]
				t = r.t
				if used++; used == r.left {
					run, used = run+1, 0
				}
			}
			visit(a, t)
		}
	}
	walk(s.hd[s.head:])
	if s.more != nil {
		for _, seg := range s.more.segs {
			walk(seg)
		}
	}
}

// SetSource installs the workload source that drives Generate's arrival
// process and every destination draw. On a freshly restored network it
// applies the snapshot's stashed workload state — the source names must
// match, or the install fails rather than silently replaying the wrong
// process. Otherwise the source is reset to its initial state, so a
// Source shared across the networks of a load sweep stays deterministic.
func (n *Network) SetSource(src traffic.Source) error {
	if src == nil {
		return fmt.Errorf("sim: nil workload source")
	}
	if b, ok := src.(*traffic.Bernoulli); ok && (b == nil || b.Pattern == nil) {
		return fmt.Errorf("sim: Bernoulli workload source has no Pattern")
	}
	if pw := n.pendingWl; pw != nil {
		if src.Name() != pw.name {
			return fmt.Errorf("sim: snapshot carries workload state for source %q, cannot install %q",
				pw.name, src.Name())
		}
		if err := src.SetState(pw.state); err != nil {
			return fmt.Errorf("sim: restore workload state for %q: %w", pw.name, err)
		}
		n.pendingWl = nil
	} else if err := src.SetState(nil); err != nil {
		return fmt.Errorf("sim: reset workload state for %q: %w", src.Name(), err)
	}
	n.wl = src
	return nil
}

// Source returns the installed workload source, nil if none.
func (n *Network) Source() traffic.Source { return n.wl }

// Generate performs one cycle's worth of arrivals from the installed
// workload source: one Arrivals draw per node, in node-index order, on
// the caller thread between Steps. load is the offered load in flits per
// node per cycle. Call once per cycle before Step, or use the run
// harnesses which do this for you.
func (n *Network) Generate(load float64) error {
	wl := n.wl
	if wl == nil {
		return fmt.Errorf("sim: no workload source installed (SetSource first)")
	}
	if v, ok := wl.(traffic.LoadValidator); ok {
		if err := v.ValidateLoad(load); err != nil {
			return err
		}
	}
	c := n.cycle
	ps := n.cfg.PacketSize
	for i := range n.sources {
		s := &n.sources[i]
		for k := wl.Arrivals(topo.NodeID(i), load, ps, s.rng); k > 0; k-- {
			s.pushTimestamp(c)
			n.wakeSource(i)
			if c >= n.measStart && c < n.measEnd {
				n.measCreated++
			}
		}
	}
	return nil
}

// SeedBatch places batch arrivals (timestamped at the current cycle) into
// every source queue, for the batch experiments of Fig. 5.
func (n *Network) SeedBatch(perNode int) {
	c := n.cycle
	for i := range n.sources {
		s := &n.sources[i]
		for j := 0; j < perNode; j++ {
			s.pushTimestamp(c)
		}
		if perNode > 0 {
			n.wakeSource(i)
		}
	}
}

// SetMeasurementWindow marks packets whose arrival timestamps fall in
// [start, end) as measured.
func (n *Network) SetMeasurementWindow(start, end int64) {
	n.measStart, n.measEnd = start, end
}

// MeasuredCounts returns how many measured packets have been generated and
// delivered so far.
func (n *Network) MeasuredCounts() (created, delivered int64) {
	return n.measCreated, n.measDelivered
}
