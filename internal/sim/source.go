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
type source struct {
	rng *rng.Source

	// cur is the packet currently streaming its flits into the terminal
	// input buffer; remaining counts its flits yet to inject.
	cur *Packet

	// Backlog of pending arrivals: a ring over q, so a source that never
	// fully drains reuses its storage instead of sliding through (and
	// regrowing) an append-only window. q only grows when the backlog
	// outgrows it.
	q     []arrival
	head  int32
	count int32

	remaining int32

	// router and ivc address the terminal input VC this source injects
	// into. The source's node is its index in Network.sources.
	router int32
	ivc    int32
}

// arrival is one generated-but-not-yet-materialized packet. Pattern-based
// arrivals draw their destination at materialization time; trace-based
// arrivals carry it explicitly. Transfer arrivals (StartTransfer)
// additionally carry the handle their delivery is credited to.
//
// A saturated source queues one arrival per offered packet for the whole
// run, so the backlog's footprint is what a saturated job's memory comes
// to: the struct is packed into 24 bytes.
type arrival struct {
	ts     int64
	xfer   *Transfer
	dst    int32 // destination node, meaningful when hasDst
	hasDst bool
}

func (s *source) backlogLen() int { return int(s.count) }

// at returns the k-th pending arrival, k in [0, count).
func (s *source) at(k int) *arrival {
	i := int(s.head) + k
	if i >= len(s.q) {
		i -= len(s.q)
	}
	return &s.q[i]
}

func (s *source) push(a arrival) {
	if int(s.count) == len(s.q) {
		// Double a small ring; grow a large one by a quarter, as append
		// does, so a long backlog is not held at up to twice its size.
		size := max(4, 2*len(s.q))
		if len(s.q) >= 256 {
			size = len(s.q) + len(s.q)/4
		}
		grown := make([]arrival, size)
		n := copy(grown, s.q[s.head:])
		copy(grown[n:], s.q[:s.head])
		s.q, s.head = grown, 0
	}
	s.count++
	*s.at(int(s.count) - 1) = a
}

func (s *source) pushTimestamp(t int64) { s.push(arrival{ts: t}) }

// pushArrival enqueues one pattern arrival at source i and wakes it —
// the single-packet injection hook the timing tests use.
func (n *Network) pushArrival(i int, ts int64) {
	n.sources[i].pushTimestamp(ts)
	n.wakeSource(i)
}

func (s *source) pushTraced(t int64, dst topo.NodeID) {
	s.push(arrival{ts: t, dst: int32(dst), hasDst: true})
}

func (s *source) peekTS() int64 { return s.q[s.head].ts }

func (s *source) pop() arrival {
	a := s.q[s.head]
	s.q[s.head] = arrival{}
	s.head++
	if int(s.head) == len(s.q) {
		s.head = 0
	}
	s.count--
	return a
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

// OnDeliver installs a delivery callback invoked for every delivered
// packet (measured or not) before the packet is recycled. The callback
// must not retain the packet.
func (n *Network) OnDeliver(f func(p *Packet, cycle int64)) {
	n.onDeliver = f
}
