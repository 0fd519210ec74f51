package sim

import (
	"fmt"

	"flatnet/internal/topo"
)

// TraceEntry is one packet arrival in a traffic trace: at Cycle, node Src
// generates Size packets for Dst (0 and 1 both mean one packet;
// RecordTrace emits single-packet entries).
type TraceEntry struct {
	Cycle int64
	Src   topo.NodeID
	Dst   topo.NodeID
	Size  int
}

// packets returns the entry's packet count.
func (e TraceEntry) packets() int {
	if e.Size < 1 {
		return 1
	}
	return e.Size
}

// InjectAt schedules a single packet arrival at the given node with an
// explicit destination and arrival timestamp. Trace-driven injection
// bypasses the installed Source for these packets. Arrivals must be
// scheduled in non-decreasing timestamp order per node (FIFO source
// queues).
func (n *Network) InjectAt(src topo.NodeID, ts int64, dst topo.NodeID) error {
	if int(src) < 0 || int(src) >= len(n.sources) {
		return fmt.Errorf("sim: trace source %d out of range", src)
	}
	if int(dst) < 0 || int(dst) >= n.g.NumNodes {
		return fmt.Errorf("sim: trace destination %d out of range", dst)
	}
	s := &n.sources[src]
	s.pushTraced(ts, dst)
	n.wakeSource(int(src))
	if ts >= n.measStart && ts < n.measEnd {
		n.measCreated++
	}
	return nil
}

// RecordTrace attaches an injection recorder, a Materialize hook set:
// every packet materialized after this call (by Generate or InjectAt) is
// appended to the returned slice pointer's target, so the trace replays
// the exact same (cycle, src, dst) triples. Cycle is the arrival
// timestamp; under backlog materialization lags arrival, so entries are
// in cycle order per source only, and WriteTraceJSONL sorts them.
func (n *Network) RecordTrace() *[]TraceEntry {
	rec := &[]TraceEntry{}
	n.AttachHooks(&Hooks{Materialize: func(p *Packet) {
		*rec = append(*rec, TraceEntry{Cycle: p.InjectCycle, Src: p.Src, Dst: p.Dst})
	}})
	return rec
}
