package nocsvc

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
)

// SessionStats is one session's live detail, served by the stats verb.
type SessionStats struct {
	ID        string  `json:"id"`
	Topology  string  `json:"topology"`
	Algorithm string  `json:"algorithm"`
	Nodes     int     `json:"nodes"`
	Load      float64 `json:"load"`
	// Pattern is the background traffic's spatial pattern.
	Pattern string `json:"pattern"`
	// Cycles is how far the session's network has advanced.
	Cycles int64 `json:"cycles"`
	// CyclesPerSec is the session's simulation rate: cycles advanced per
	// second of wall-clock time the worker spent simulating (warm-up and
	// estimates; idle time excluded). 0 until the first cycle completes.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// Estimates counts transfers estimated so far (batch items included).
	Estimates int64 `json:"estimates"`
	// QueueDepth is the current inflight command queue length.
	QueueDepth int `json:"queue_depth"`
	// IdleMS is how long ago the session last accepted a request.
	IdleMS int64 `json:"idle_ms"`
}

// cmd is one unit of session work, submitted by a connection handler and
// executed by the session's worker goroutine. Exactly one of respond
// (estimates) or respondSnap (checkpoint_session) is set and is called
// exactly once, from the worker (or the shutdown drain).
type cmd struct {
	items    []EstimateParams
	snapshot bool
	respond  func(results []EstimateResult, perr *Error)
	// respondSnap receives the serialized network for snapshot commands.
	respondSnap func(data []byte, perr *Error)
}

// fail answers the command with an error through whichever responder it
// carries.
func (c *cmd) fail(perr *Error) {
	if c.snapshot {
		c.respondSnap(nil, perr)
		return
	}
	c.respond(nil, perr)
}

// session owns one warmed sim.Network and the single goroutine that may
// touch it. Commands flow through a bounded queue (the per-session
// backpressure surface); everything the network computes happens on the
// worker, so the simulator itself needs no locking.
type session struct {
	id   string
	p    OpenParams // normalized
	info SessionInfo

	// cmds is the bounded inflight queue; mu serializes submit against
	// close so the channel is never sent on after it is closed.
	mu     sync.Mutex
	closed bool
	cmds   chan *cmd
	stop   chan struct{} // closed to interrupt long estimates
	done   chan struct{} // closed when the worker exits

	// Owned by the worker goroutine.
	net    *sim.Network
	budget int64 // per-estimate cycle budget

	// Published for stats; written by the worker / submit path.
	cycles    atomic.Int64
	estimates atomic.Int64
	busyNS    atomic.Int64 // wall-clock nanoseconds spent simulating
	lastUsed  atomic.Int64 // unix nanoseconds
}

// newSession builds the session's network and starts its worker; it
// returns once the network is warmed (or building fails). p must be
// validated and normalized.
func newSession(id string, p OpenParams, maxNodes, maxInflight int, budget int64) (*session, *Error) {
	return buildSession(id, p, nil, maxNodes, maxInflight, budget)
}

// newSessionFromSnapshot builds a session whose network is restored
// from a checkpoint instead of warmed from scratch: the clone starts at
// the checkpointed cycle with every buffer, RNG stream and in-flight
// flit intact, bit-identical to the session it was taken from.
func newSessionFromSnapshot(id string, p OpenParams, snap []byte, maxNodes, maxInflight int, budget int64) (*session, *Error) {
	return buildSession(id, p, snap, maxNodes, maxInflight, budget)
}

// buildSession is the shared constructor: snap == nil builds cold and
// warms; otherwise the network is restored from the snapshot bytes.
func buildSession(id string, p OpenParams, snap []byte, maxNodes, maxInflight int, budget int64) (*session, *Error) {
	// A snapshot stashes only the workload's name and mutable state; the
	// clone re-derives the source from the (normalized) params and
	// SetSource re-applies the stashed state.
	g, alg, cfg, src, err := build(p, maxNodes)
	if err != nil {
		return nil, errf(CodeBadRequest, "open: %v", err)
	}
	var n *sim.Network
	if snap != nil {
		n, err = sim.Restore(bytes.NewReader(snap), g, alg, cfg)
		if err != nil {
			return nil, errf(CodeInternal, "clone: %v", err)
		}
	} else {
		n, err = sim.New(g, alg, cfg)
		if err != nil {
			return nil, errf(CodeBadRequest, "open: %v", err)
		}
	}
	if err := n.SetSource(src); err != nil {
		return nil, errf(CodeInternal, "clone: workload: %v", err)
	}
	s := &session{
		id:     id,
		p:      p,
		net:    n,
		budget: budget,
		cmds:   make(chan *cmd, maxInflight),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.info = SessionInfo{
		Nodes:      g.NumNodes,
		Routers:    len(g.Routers),
		VCs:        n.VCs(),
		PacketSize: n.PacketSize(),
		FlitBytes:  p.FlitBytes,
		Algorithm:  alg.Name(),
	}
	s.touch()
	if snap == nil {
		if perr := s.warm(); perr != nil {
			n.Close()
			return nil, perr
		}
	}
	s.info.WarmCycles = n.Cycle()
	s.cycles.Store(n.Cycle())
	go s.run()
	return s, nil
}

// touch records request activity for idle eviction.
func (s *session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// idleFor reports how long the session has gone without a request.
func (s *session) idleFor(now time.Time) time.Duration {
	return time.Duration(now.UnixNano() - s.lastUsed.Load())
}

// submit enqueues a command, applying backpressure: a full inflight
// queue rejects with CodeOverloaded rather than blocking the caller.
func (s *session) submit(c *cmd) *Error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errf(CodeNoSession, "session %s is closed", s.id)
	}
	select {
	case s.cmds <- c:
		s.touch()
		return nil
	default:
		return errf(CodeOverloaded, "session %s inflight queue full (%d)", s.id, cap(s.cmds))
	}
}

// close shuts the session down: no further submits are accepted, queued
// commands are answered (with CodeShutdown for any the worker had not
// reached), and close returns once the worker has exited.
func (s *session) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	close(s.stop)
	close(s.cmds) // safe: submit holds mu, so no send can race this
	s.mu.Unlock()
	<-s.done
}

// stopped reports whether shutdown has been requested.
func (s *session) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// run is the session worker: the only goroutine that touches s.net.
func (s *session) run() {
	defer close(s.done)
	defer s.net.Close()
	for c := range s.cmds {
		if s.stopped() {
			c.fail(errf(CodeShutdown, "session %s shutting down", s.id))
			continue
		}
		start := time.Now()
		if c.snapshot {
			data, perr := s.checkpoint()
			s.busyNS.Add(time.Since(start).Nanoseconds())
			c.respondSnap(data, perr)
			continue
		}
		results, perr := s.handle(c)
		s.busyNS.Add(time.Since(start).Nanoseconds())
		s.cycles.Store(s.net.Cycle())
		c.respond(results, perr)
	}
}

// checkpoint serializes the session's network. It runs on the worker
// between steps, so the snapshot captures a consistent state; estimates
// queued behind it resume afterwards unaffected.
func (s *session) checkpoint() ([]byte, *Error) {
	var buf bytes.Buffer
	if err := s.net.Snapshot(&buf); err != nil {
		return nil, errf(CodeInternal, "checkpoint: %v", err)
	}
	return buf.Bytes(), nil
}

// warm advances the network through the session's warm-up window at the
// background load, leaving queues in steady state before the first
// estimate.
func (s *session) warm() *Error {
	start := time.Now()
	for i := 0; i < s.p.Warmup; i++ {
		if perr := s.advance(); perr != nil {
			return perr
		}
	}
	s.busyNS.Add(time.Since(start).Nanoseconds())
	s.cycles.Store(s.net.Cycle())
	return nil
}

// advance steps the network one cycle, with background injection from
// the session's workload source at its load. Generate cannot fail on a
// well-formed session — the open validated load against the source —
// so an error here is surfaced as internal.
func (s *session) advance() *Error {
	if s.p.Load > 0 {
		if err := s.net.Generate(s.p.Load); err != nil {
			return errf(CodeInternal, "advance: %v", err)
		}
	}
	s.net.Step()
	return nil
}

// handle executes one command's estimates in order. Items after a
// hard failure (out-of-range coordinates) are not attempted.
func (s *session) handle(c *cmd) ([]EstimateResult, *Error) {
	results := make([]EstimateResult, 0, len(c.items))
	for i := range c.items {
		r, perr := s.estimate(c.items[i])
		if perr != nil {
			if len(c.items) > 1 {
				perr = errf(perr.Code, "batch item %d: %s", i, perr.Message)
			}
			return nil, perr
		}
		results = append(results, r)
	}
	return results, nil
}

// estimate injects one measured transfer into the warm network and
// advances the simulation — background traffic included — until the
// transfer drains or the cycle budget runs out.
func (s *session) estimate(e EstimateParams) (EstimateResult, *Error) {
	if e.Src >= s.info.Nodes {
		return EstimateResult{}, errf(CodeBadRequest,
			"est: src %d out of [0,%d)", e.Src, s.info.Nodes)
	}
	if e.Dst >= s.info.Nodes {
		return EstimateResult{}, errf(CodeBadRequest,
			"est: dst %d out of [0,%d)", e.Dst, s.info.Nodes)
	}
	packets := packetsFor(e.Bytes, s.p.FlitBytes, s.p.PacketSize)
	tr, err := s.net.StartTransfer(topo.NodeID(e.Src), topo.NodeID(e.Dst), packets)
	if err != nil {
		return EstimateResult{}, errf(CodeInternal, "%v", err)
	}
	s.estimates.Add(1)
	deadline := s.net.Cycle() + s.budget
	for !tr.Done() {
		if s.net.Cycle() >= deadline {
			return EstimateResult{Cycles: s.budget, Packets: packets, Saturated: true}, nil
		}
		if s.net.Cycle()&0x3ff == 0 && s.stopped() {
			return EstimateResult{}, errf(CodeShutdown, "session %s shutting down", s.id)
		}
		if perr := s.advance(); perr != nil {
			return EstimateResult{}, perr
		}
	}
	return EstimateResult{Cycles: tr.Latency(), Hops: tr.Hops(), Packets: packets}, nil
}

// stats snapshots the session for the stats verb.
func (s *session) stats(now time.Time) SessionStats {
	cycles := s.cycles.Load()
	var rate float64
	if busy := s.busyNS.Load(); busy > 0 && cycles > 0 {
		rate = float64(cycles) / (float64(busy) / 1e9)
	}
	return SessionStats{
		ID:           s.id,
		Topology:     s.p.Topology,
		Algorithm:    s.info.Algorithm,
		Nodes:        s.info.Nodes,
		Load:         s.p.Load,
		Pattern:      s.p.Pattern,
		Cycles:       cycles,
		CyclesPerSec: rate,
		Estimates:    s.estimates.Load(),
		QueueDepth:   len(s.cmds),
		IdleMS:       s.idleFor(now).Milliseconds(),
	}
}
