package sim

import (
	"encoding/binary"
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
// The backlog of pending arrivals is a FIFO in two parts. hd[head:] is
// the head window, the oldest arrivals decoded, where pop and peekTS read
// them. The window starts at minSegment arrivals and doubles up to
// maxSegment; a full window whose front half has drained is compacted in
// place instead, so a short backlog that never quite drains keeps one
// small window. What does not fit a full window goes to the byte stream
// behind more, and once that stream holds anything every push goes
// behind it, so the window always holds the oldest arrivals; a drained
// window refills from the stream. So a saturated source, which queues one
// arrival per offered packet for the whole run, holds its window plus
// about a byte per queued arrival. An empty backlog is len(hd) == 0.
//
// A source is 64 bytes, one cache line (TestHotLayoutSizes); everything
// only a long backlog needs lives behind more.
type source struct {
	rng *rng.Source

	// cur is the handle of the packet currently streaming its flits into
	// the terminal input buffer, 0 when none; remaining counts its flits
	// yet to inject.
	cur int32

	hd   []arrival
	more *overflow // nil until the backlog first outgrows a full window
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
// head windows as noscan memory: the collector never marks them and
// stores into them need no write barrier. That is why a transfer arrival
// names its transfer by slot-table row and not by *Transfer.
type arrival struct {
	ts    int64
	dst   int32 // destination node; negative means "draw at materialization"
	xslot int32 // 1 + the row of its transfer in Network.xfers, 0 for none
}

// Head window sizes, in arrivals, and stream chunk sizes, in bytes. The
// smallest window is one cache line, so an idle terminal costs 64 bytes;
// a full window is 1 kB, so the stream is decoded 64 arrivals at a time
// and the sources that never queue more than that (every unsaturated
// one) never touch it. Chunks stop at 1 kB so that a drained source holds
// at most its window and one spare chunk (DESIGN.md §10).
const (
	minSegment = 4
	maxSegment = 64
	minChunk   = 64
	maxChunk   = 1024
)

// maxEncoded bounds one encoded arrival: a 65-bit header takes 10 bytes,
// an int32 varint and a uint32 uvarint 5 each.
const maxEncoded = 20

// overflow is the part of a source's backlog behind its head window: a
// byte stream of encoded arrivals, oldest first. Each arrival is the
// LEB128 uvarint of zigzag(ts - previous ts)<<1 | payload, a 65-bit value
// so that any int64 delta fits (one byte for the same-cycle and
// next-cycle arrivals a saturated source queues); a payload arrival, one
// with a destination or a transfer, follows it with dst as a varint and
// xslot as a uvarint. The stream lives in chunks that double from
// minChunk to maxChunk bytes and are never copied or regrown: a full tail
// gets a new chunk behind it, and a drained head chunk becomes the spare
// that the next one reuses. An arrival never straddles two chunks.
type overflow struct {
	chunks [][]byte // oldest first; the last is the tail that spill appends to
	spare  []byte   // the largest drained chunk, empty, for the next one
	n      int      // arrivals in the stream
	rd     int      // read offset into chunks[0]
	rts    int64    // timestamp of the last arrival read; the next delta read is relative to it
	wts    int64    // timestamp of the last arrival written; equal to rts while n == 0
}

func (s *source) empty() bool { return len(s.hd) == 0 }

func (s *source) backlogLen() int {
	n := len(s.hd) - int(s.head)
	if s.more != nil {
		n += s.more.n
	}
	return n
}

func (s *source) push(a arrival) {
	if o := s.more; o != nil && o.n > 0 || len(s.hd) == cap(s.hd) && !s.makeRoom() {
		s.spill(a)
		return
	}
	s.hd = append(s.hd, a)
}

// makeRoom frees space in the full head window: it compacts the window in
// place when at least half of it has drained, doubles it below
// maxSegment, and otherwise reports false.
func (s *source) makeRoom() bool {
	live := len(s.hd) - int(s.head)
	switch {
	case s.head > 0 && 2*int(s.head) >= len(s.hd):
		copy(s.hd, s.hd[s.head:])
		s.hd = s.hd[:live]
	case cap(s.hd) < maxSegment:
		w := make([]arrival, live, max(2*cap(s.hd), minSegment))
		copy(w, s.hd[s.head:])
		s.hd = w
	default:
		return false
	}
	s.head = 0
	return true
}

// spill appends a to the stream behind the head window.
func (s *source) spill(a arrival) {
	o := s.more
	if o == nil {
		o = &overflow{}
		s.more = o
	}
	if k := len(o.chunks); k == 0 || cap(o.chunks[k-1])-len(o.chunks[k-1]) < maxEncoded {
		o.chunks = append(o.chunks, o.newChunk())
	}
	tail := &o.chunks[len(o.chunks)-1]
	*tail = appendArrival(*tail, a, o.wts)
	o.wts = a.ts
	o.n++
}

// newChunk returns an empty chunk twice the size of the tail (minChunk
// for the first), capped at maxChunk: the spare if it is large enough.
func (o *overflow) newChunk() []byte {
	size := minChunk
	if k := len(o.chunks); k > 0 {
		size = min(2*cap(o.chunks[k-1]), maxChunk)
	}
	if cap(o.spare) >= size {
		c := o.spare
		o.spare = nil
		return c
	}
	return make([]byte, 0, size)
}

// take moves the oldest arrivals of the stream into w, as many as fit,
// and returns how many it moved. A drained stream keeps its last chunk
// as the spare.
func (o *overflow) take(w []arrival) int {
	k := min(len(w), o.n)
	c, off, ts := o.chunks[0], o.rd, o.rts
	for i := 0; i < k; i++ {
		if off == len(c) {
			o.retire()
			c, off = o.chunks[0], 0
		}
		w[i], off = readArrival(c, off, ts)
		ts = w[i].ts
	}
	o.rd, o.rts = off, ts
	if o.n -= k; o.n == 0 {
		o.retire()
		o.rd = 0
	}
	return k
}

// retire drops the drained head chunk, keeping it as the spare if it is
// the larger.
func (o *overflow) retire() {
	if c := o.chunks[0]; cap(c) > cap(o.spare) {
		o.spare = c[:0]
	}
	k := copy(o.chunks, o.chunks[1:])
	o.chunks[k] = nil
	o.chunks = o.chunks[:k]
}

// appendArrival appends a's encoding, its timestamp relative to prev, to
// b.
func appendArrival(b []byte, a arrival, prev int64) []byte {
	d := a.ts - prev
	zz := uint64(d<<1) ^ uint64(d>>63)
	var payload byte
	if a.dst != -1 || a.xslot != 0 {
		payload = 1
	}
	// The header's low 7 bits, then the rest as an ordinary uvarint: the
	// LEB128 of zz<<1 | payload without losing zz's top bit.
	first := byte(zz<<1)&0x7e | payload
	if rest := zz >> 6; rest != 0 {
		b = binary.AppendUvarint(append(b, first|0x80), rest)
	} else {
		b = append(b, first)
	}
	if payload != 0 {
		b = binary.AppendVarint(b, int64(a.dst))
		b = binary.AppendUvarint(b, uint64(uint32(a.xslot)))
	}
	return b
}

// readArrival decodes the arrival at b[off:], whose timestamp is relative
// to prev, and returns it with the offset just past it.
func readArrival(b []byte, off int, prev int64) (arrival, int) {
	h := b[off]
	off++
	zz := uint64(h>>1) & 0x3f
	if h&0x80 != 0 {
		rest, k := binary.Uvarint(b[off:])
		zz |= rest << 6
		off += k
	}
	a := arrival{ts: prev + (int64(zz>>1) ^ -int64(zz&1)), dst: -1}
	if h&1 != 0 {
		dst, k := binary.Varint(b[off:])
		off += k
		xslot, k := binary.Uvarint(b[off:])
		off += k
		a.dst, a.xslot = int32(dst), int32(xslot)
	}
	return a, off
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

// retireHead refills the drained head window from the stream; with the
// stream empty the backlog is empty and the window restarts. Outlined so
// that pop itself inlines into injectSource.
//
//go:noinline
func (s *source) retireHead() {
	s.head = 0
	if o := s.more; o != nil && o.n > 0 {
		s.hd = s.hd[:o.take(s.hd[:cap(s.hd)])]
		return
	}
	s.hd = s.hd[:0]
}

// eachPending visits the backlog oldest first.
func (s *source) eachPending(visit func(a arrival)) {
	for _, a := range s.hd[s.head:] {
		visit(a)
	}
	o := s.more
	if o == nil {
		return
	}
	ci, off, ts := 0, o.rd, o.rts
	for i := 0; i < o.n; i++ {
		if off == len(o.chunks[ci]) {
			ci, off = ci+1, 0
		}
		var a arrival
		a, off = readArrival(o.chunks[ci], off, ts)
		ts = a.ts
		visit(a)
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
