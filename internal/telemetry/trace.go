package telemetry

import "fmt"

// EventKind identifies one stage of a flit's journey through the router
// pipeline.
type EventKind uint8

const (
	// EvInject marks a flit entering its source router's terminal input
	// buffer.
	EvInject EventKind = iota
	// EvRoute marks a head flit receiving a routing decision (output
	// port and virtual channel) at a router.
	EvRoute
	// EvVCAlloc marks a head flit acquiring its downstream virtual
	// channel (wormhole VC allocation).
	EvVCAlloc
	// EvXbar marks a flit traversing the crossbar onto an output
	// channel.
	EvXbar
	// EvEject marks a flit delivered at its destination terminal.
	EvEject

	numEventKinds
)

var kindNames = [numEventKinds]string{"inject", "route", "vc_alloc", "xbar", "eject"}

// String returns the kind's wire name, as used by the exporters.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseEventKind inverts EventKind.String.
func ParseEventKind(s string) (EventKind, error) {
	for i, n := range kindNames {
		if n == s {
			return EventKind(i), nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown event kind %q", s)
}

// FlitEvent is one record of the flit tracer: a pipeline stage crossed
// by one flit of one packet at one cycle.
type FlitEvent struct {
	Cycle  int64
	Kind   EventKind
	Packet int64 // packet ID
	Src    int   // source node
	Dst    int   // destination node
	Router int   // router where the event occurred (destination router for ejects)
	Port   int   // output port (EvRoute/EvVCAlloc/EvXbar/EvEject); input port for EvInject
	VC     int   // virtual channel of the decision, -1 where not applicable
	Tail   bool  // set when the flit is its packet's tail
}

// Tracer records flit pipeline events into a fixed-capacity ring buffer:
// when full, the oldest events are overwritten, so a long run retains
// its most recent history at bounded memory.
//
// A Tracer is written from the simulation goroutine only; read it after
// the run (or from the same goroutine).
type Tracer struct {
	ring    []FlitEvent
	head    int // index of the oldest retained event
	n       int
	dropped int64
}

// NewTracer returns a tracer retaining at most capacity events
// (clamped to 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]FlitEvent, capacity)}
}

// Record appends an event, evicting the oldest if the ring is full.
func (t *Tracer) Record(ev FlitEvent) {
	if t.n < len(t.ring) {
		t.ring[(t.head+t.n)%len(t.ring)] = ev
		t.n++
		return
	}
	t.ring[t.head] = ev
	t.head = (t.head + 1) % len(t.ring)
	t.dropped++
}

// Len returns the number of retained events.
func (t *Tracer) Len() int { return t.n }

// Dropped returns how many events were evicted by ring wrap.
func (t *Tracer) Dropped() int64 { return t.dropped }

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []FlitEvent {
	out := make([]FlitEvent, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	return out
}

// PacketEvents returns the retained events of one packet, oldest first.
func (t *Tracer) PacketEvents(packet int64) []FlitEvent {
	var out []FlitEvent
	for i := 0; i < t.n; i++ {
		if ev := t.ring[(t.head+i)%len(t.ring)]; ev.Packet == packet {
			out = append(out, ev)
		}
	}
	return out
}
