package sim

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"flatnet/internal/topo"
)

// The JSONL workload-trace format (DESIGN.md §16): one JSON object per
// line, {"cycle":C,"src":S,"dst":D,"size":K}, with size optional
// (default one packet). Lines must be ordered by non-decreasing cycle —
// the property that lets a replay stream a trace of any length with
// bounded memory. Blank lines are ignored; unknown fields are tolerated
// for additive evolution.
type jsonlEntry struct {
	Cycle int64 `json:"cycle"`
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Size  int   `json:"size,omitempty"`
}

// WriteTraceJSONL emits a workload trace in the JSONL format, stably
// sorted by cycle so it streams through ReplayTrace. The sort keeps each
// source's arrivals in the order given, so a RecordTrace recording
// replays as it ran even when a backlog delayed materialization.
func WriteTraceJSONL(w io.Writer, entries []TraceEntry) error {
	sorted := slices.Clone(entries)
	slices.SortStableFunc(sorted, func(a, b TraceEntry) int { return cmp.Compare(a.Cycle, b.Cycle) })
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range sorted {
		je := jsonlEntry{Cycle: e.Cycle, Src: int(e.Src), Dst: int(e.Dst), Size: e.Size}
		if err := enc.Encode(&je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TraceScanner streams a JSONL workload trace entry by entry, holding
// one line in memory at a time. It validates as it goes: malformed
// JSON, negative fields, oversized packet counts and cycle-order
// violations are errors carrying the offending line number, never
// panics.
type TraceScanner struct {
	sc   *bufio.Scanner
	line int
	last int64
}

// maxTraceEntryPackets bounds one entry's packet count, so a corrupt
// size field cannot balloon a replay.
const maxTraceEntryPackets = 1 << 20

// NewTraceScanner builds a streaming reader over a JSONL workload
// trace.
func NewTraceScanner(r io.Reader) *TraceScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &TraceScanner{sc: sc}
}

// Next returns the next trace entry. It returns io.EOF at the end of
// the trace and a descriptive error on malformed input.
func (t *TraceScanner) Next() (TraceEntry, error) {
	for t.sc.Scan() {
		t.line++
		line := t.sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		var je jsonlEntry
		if err := json.Unmarshal(line, &je); err != nil {
			return TraceEntry{}, fmt.Errorf("sim: trace line %d: %w", t.line, err)
		}
		if je.Cycle < 0 || je.Src < 0 || je.Dst < 0 || je.Size < 0 {
			return TraceEntry{}, fmt.Errorf("sim: trace line %d: negative field", t.line)
		}
		if je.Size > maxTraceEntryPackets {
			return TraceEntry{}, fmt.Errorf("sim: trace line %d: size %d above cap %d",
				t.line, je.Size, maxTraceEntryPackets)
		}
		if je.Cycle < t.last {
			return TraceEntry{}, fmt.Errorf("sim: trace line %d: cycle %d out of order (after %d)",
				t.line, je.Cycle, t.last)
		}
		t.last = je.Cycle
		return TraceEntry{
			Cycle: je.Cycle,
			Src:   topo.NodeID(je.Src),
			Dst:   topo.NodeID(je.Dst),
			Size:  je.Size,
		}, nil
	}
	if err := t.sc.Err(); err != nil {
		return TraceEntry{}, fmt.Errorf("sim: trace line %d: %w", t.line+1, err)
	}
	return TraceEntry{}, io.EOF
}

// trimSpace is a minimal allocation-free space trim for line emptiness
// checks.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// replayHorizon is how many cycles ahead of the network's clock
// ReplayTrace pre-loads arrivals. It bounds the replay's memory to the
// traffic of one horizon window plus whatever backlog the network
// itself accumulates.
const replayHorizon = 1024

// ReplayTrace streams a JSONL trace into the network: every entry is
// injected (as Size packets from Src to Dst at its arrival cycle) and
// the network is stepped as the trace's clock advances, then run until
// every injected packet has drained. It returns the packet count
// injected. maxCycles bounds the whole replay; 0 means unbounded. stop,
// when non-nil, is polled every few hundred cycles like RunConfig.Stop;
// returning true aborts the replay with an error wrapping ErrStopped.
// The replay counts as one run in Live.
//
// The trace must be ordered by non-decreasing cycle; the scanner
// enforces this, which is what keeps memory bounded for traces of any
// length. Deliveries are observable through a Hooks.Deliver set.
func (n *Network) ReplayTrace(t *TraceScanner, maxCycles int64, stop func() bool) (int64, error) {
	h := track(n, stop)
	defer h.finish()
	var injected int64
	var e TraceEntry
	have, eof := false, false
	for !eof {
		// Top up: inject every entry due within the look-ahead horizon.
		for {
			if !have {
				var err error
				e, err = t.Next()
				if err == io.EOF {
					eof = true
					break
				}
				if err != nil {
					return injected, err
				}
				have = true
			}
			if e.Cycle > n.Cycle()+replayHorizon {
				break
			}
			for k := e.packets(); k > 0; k-- {
				if err := n.InjectAt(e.Src, e.Cycle, e.Dst); err != nil {
					return injected, err
				}
				injected++
			}
			have = false
		}
		if eof {
			break
		}
		if maxCycles > 0 && n.Cycle() >= maxCycles {
			return injected, fmt.Errorf("sim: trace replay exceeded %d cycles", maxCycles)
		}
		if err := h.step(); err != nil {
			return injected, err
		}
	}
	// Drain: run until every arrival has materialized and delivered.
	for {
		inj, del := n.Totals()
		if n.Backlog() == 0 && del >= inj {
			return injected, nil
		}
		if maxCycles > 0 && n.Cycle() >= maxCycles {
			return injected, fmt.Errorf("sim: trace replay did not drain within %d cycles", maxCycles)
		}
		if err := h.step(); err != nil {
			return injected, err
		}
	}
}
