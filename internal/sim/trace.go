package sim

import (
	"fmt"
	"sort"

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

// LoadTrace schedules every entry of a trace. Entries are sorted by
// (cycle, source) first so per-node FIFO order holds regardless of input
// order. Entries with timestamps earlier than the current cycle are
// injected as soon as possible.
func (n *Network) LoadTrace(entries []TraceEntry) error {
	sorted := append([]TraceEntry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Cycle != sorted[j].Cycle {
			return sorted[i].Cycle < sorted[j].Cycle
		}
		return sorted[i].Src < sorted[j].Src
	})
	for _, e := range sorted {
		for k := e.packets(); k > 0; k-- {
			if err := n.InjectAt(e.Src, e.Cycle, e.Dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// OnMaterialize installs a callback invoked when a generated packet is
// materialized into the network (its destination drawn and its ID
// assigned). At most one callback is active; installing replaces any
// previous one. The callback must not retain the packet.
func (n *Network) OnMaterialize(f func(p *Packet)) {
	n.onMaterialize = f
}

// RecordTrace installs an injection recorder: every packet arrival
// generated after this call (by Generate or InjectAt) is appended to the
// returned slice pointer's target when it is materialized into the
// network. It uses the OnMaterialize hook.
//
// Recording happens at materialization time, when the destination is
// drawn, so the recorded trace replays the exact same (cycle, src, dst)
// triples. Note that materialization can lag arrival under backlog; the
// recorded Cycle field is the original arrival timestamp.
func (n *Network) RecordTrace() *[]TraceEntry {
	rec := &[]TraceEntry{}
	n.OnMaterialize(func(p *Packet) {
		*rec = append(*rec, TraceEntry{Cycle: p.InjectCycle, Src: p.Src, Dst: p.Dst})
	})
	return rec
}
