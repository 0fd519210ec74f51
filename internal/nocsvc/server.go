package nocsvc

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"flatnet/internal/telemetry"
)

// ServerConfig parameterizes a Server. The zero value is usable:
// withDefaults fills every field.
type ServerConfig struct {
	// MaxSessions caps concurrently open sessions (default 64).
	MaxSessions int
	// MaxInflight bounds each session's inflight command queue; requests
	// past it are rejected with CodeOverloaded (default 64).
	MaxInflight int
	// IdleTimeout evicts sessions with no requests for this long
	// (default 5m; negative disables).
	IdleTimeout time.Duration
	// OpenWait is how long an open_session may wait for a slot when the
	// daemon is at MaxSessions before rejecting (default 0: reject
	// immediately).
	OpenWait time.Duration
	// EstimateBudget is the per-estimate cycle budget before the estimate
	// reports Saturated (default 1 << 16).
	EstimateBudget int
	// MaxNodes rejects open_session topologies larger than this many
	// terminals (default 4096; negative disables).
	MaxNodes int
	// MaxCheckpoints caps the server-side checkpoint store; taking a
	// checkpoint past the cap evicts the oldest (default 16).
	MaxCheckpoints int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.EstimateBudget <= 0 {
		c.EstimateBudget = 1 << 16
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 4096
	}
	if c.MaxCheckpoints <= 0 {
		c.MaxCheckpoints = 16
	}
	return c
}

// ServerStats is the server-wide half of the stats verb.
type ServerStats struct {
	Sessions     int                       `json:"sessions"`
	PeakSessions int64                     `json:"peak_sessions"`
	Opens        int64                     `json:"opens"`
	OpenRejects  int64                     `json:"open_rejects"`
	Evictions    int64                     `json:"evictions"`
	Checkpoints  int                       `json:"checkpoints"`
	Clones       int64                     `json:"clones"`
	Requests     int64                     `json:"requests"`
	Errors       int64                     `json:"errors"`
	Estimates    int64                     `json:"estimates"`
	Service      telemetry.LatencySnapshot `json:"service_latency"`
	SessionList  []SessionStats            `json:"session_list,omitempty"`
}

// Server serves the NoC-as-a-service protocol over any number of
// connections (stdio or TCP) sharing one session table.
type Server struct {
	cfg ServerConfig
	mgr *manager
	lat *telemetry.LatencyRecorder

	requests  telemetry.Counter
	errs      telemetry.Counter
	estimates telemetry.Counter

	mu        sync.Mutex
	closed    bool
	listeners []net.Listener
	conns     map[net.Conn]struct{}

	wg sync.WaitGroup // accept loops and connection handlers
}

// NewServer builds a server; Close releases its sessions and janitor.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		mgr:   newManager(cfg),
		lat:   telemetry.NewLatencyRecorder(0),
		conns: make(map[net.Conn]struct{}),
	}
}

// StatsSnapshot returns the server-wide stats, with the per-session list
// when detail is true.
func (s *Server) StatsSnapshot(detail bool) ServerStats {
	st := ServerStats{
		Sessions:     s.mgr.count(),
		PeakSessions: s.mgr.peak.Load(),
		Opens:        s.mgr.opens.Load(),
		OpenRejects:  s.mgr.rejects.Load(),
		Evictions:    s.mgr.evictions.Load(),
		Checkpoints:  s.mgr.checkpointCount(),
		Clones:       s.mgr.clones.Load(),
		Requests:     s.requests.Value(),
		Errors:       s.errs.Value(),
		Estimates:    s.estimates.Value(),
		Service:      s.lat.Snapshot(),
	}
	if detail {
		st.SessionList = s.mgr.snapshot(time.Now())
	}
	return st
}

// Register publishes the service's counters and a live stats gauge on a
// telemetry registry (served by cmd/nocd's -telemetry endpoint).
func (s *Server) Register(reg *telemetry.Registry) {
	reg.Gauge("nocsvc", func() any { return s.StatsSnapshot(true) })
}

// Serve accepts connections from ln until the listener closes (typically
// via Server.Close). Each connection runs ServeConn in its own
// goroutine; per-connection errors end that connection only.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("nocsvc: server is closed")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			_ = s.ServeConn(conn)
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close shuts the server down: listeners and connections close, every
// session drains and exits. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.mgr.closeAll()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// syncWriter serializes response lines from concurrent session workers
// onto one connection.
type syncWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (w *syncWriter) send(resp *Response) {
	b, err := EncodeResponse(resp)
	if err != nil {
		// A response that cannot marshal is a programming error; emit a
		// structured internal error so the client is never left hanging.
		b, _ = EncodeResponse(&Response{
			ID: resp.ID, Err: errf(CodeInternal, "response encoding failed: %v", err),
		})
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.w.Write(b)        //nolint:errcheck // write errors surface on Flush
	w.w.WriteByte('\n') //nolint:errcheck
	_ = w.w.Flush()     // per-line flush: co-simulation clients block on each reply
}

// ServeConn speaks the protocol over one byte stream (a TCP connection,
// or stdin/stdout in child-process mode) until EOF or an unrecoverable
// framing error. Requests pipeline: estimates run on their sessions'
// workers while the reader keeps consuming lines, and responses are
// correlated by id, not order.
func (s *Server) ServeConn(rw io.ReadWriter) error {
	out := &syncWriter{w: bufio.NewWriter(rw)}
	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	var pending sync.WaitGroup
	defer pending.Wait()
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		s.requests.Inc()
		start := time.Now()
		req, perr := DecodeRequest(line)
		if perr != nil {
			s.fail(out, req.ID, perr, start)
			continue
		}
		s.dispatch(&req, out, &pending, start)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The stream cannot be re-framed after an oversized line:
			// answer with a structured error, then drop the connection.
			s.requests.Inc()
			s.fail(out, 0, errf(CodeLineTooLong, "request line exceeds %d bytes", MaxLineBytes), time.Now())
		}
		return err
	}
	return nil
}

// fail emits a failure response and accounts for it.
func (s *Server) fail(out *syncWriter, id int64, perr *Error, start time.Time) {
	s.errs.Inc()
	out.send(&Response{ID: id, Err: perr})
	s.lat.Observe(time.Since(start))
}

// dispatch routes one validated request. Fast verbs (stats, lookup
// failures) answer inline on the reader goroutine; opens and closes run
// on their own goroutines (they warm or drain a network); estimates run
// on their session's worker via the bounded inflight queue.
func (s *Server) dispatch(req *Request, out *syncWriter, pending *sync.WaitGroup, start time.Time) {
	switch req.Verb {
	case VerbOpen:
		p := *req.Open
		p.normalize()
		id := req.ID
		pending.Add(1)
		go func() {
			defer pending.Done()
			sess, perr := s.mgr.open(p)
			if perr != nil {
				s.fail(out, id, perr, start)
				return
			}
			info := sess.info
			out.send(&Response{ID: id, OK: true, Session: sess.id, Info: &info})
			s.lat.Observe(time.Since(start))
		}()

	case VerbEstimate, VerbBatch:
		sess, perr := s.mgr.lookup(req.Session)
		if perr != nil {
			s.fail(out, req.ID, perr, start)
			return
		}
		items := req.Batch
		single := req.Verb == VerbEstimate
		if single {
			items = []EstimateParams{*req.Est}
		}
		id := req.ID
		c := &cmd{
			items: items,
			respond: func(results []EstimateResult, perr *Error) {
				if perr != nil {
					s.fail(out, id, perr, start)
					return
				}
				s.estimates.Add(int64(len(results)))
				resp := &Response{ID: id, OK: true}
				if single {
					resp.Est = &results[0]
				} else {
					resp.Batch = results
				}
				out.send(resp)
				s.lat.Observe(time.Since(start))
			},
		}
		if perr := sess.submit(c); perr != nil {
			s.fail(out, id, perr, start)
		}

	case VerbCheckpoint:
		sess, perr := s.mgr.lookup(req.Session)
		if perr != nil {
			s.fail(out, req.ID, perr, start)
			return
		}
		id, sid := req.ID, req.Session
		c := &cmd{
			snapshot: true,
			respondSnap: func(data []byte, perr *Error) {
				if perr != nil {
					s.fail(out, id, perr, start)
					return
				}
				ckpt := s.mgr.checkpoint(sess.p, data)
				out.send(&Response{ID: id, OK: true, Session: sid, Checkpoint: ckpt})
				s.lat.Observe(time.Since(start))
			},
		}
		if perr := sess.submit(c); perr != nil {
			s.fail(out, id, perr, start)
		}

	case VerbClone:
		id, ckpt := req.ID, req.Checkpoint
		pending.Add(1)
		go func() {
			defer pending.Done()
			sess, perr := s.mgr.clone(ckpt)
			if perr != nil {
				s.fail(out, id, perr, start)
				return
			}
			info := sess.info
			out.send(&Response{ID: id, OK: true, Session: sess.id, Checkpoint: ckpt, Info: &info})
			s.lat.Observe(time.Since(start))
		}()

	case VerbClose:
		id, sid := req.ID, req.Session
		pending.Add(1)
		go func() {
			defer pending.Done()
			if perr := s.mgr.close(sid); perr != nil {
				s.fail(out, id, perr, start)
				return
			}
			out.send(&Response{ID: id, OK: true, Session: sid})
			s.lat.Observe(time.Since(start))
		}()

	case VerbStats:
		st := &Stats{Server: s.StatsSnapshot(false)}
		if req.Session != "" {
			sess, perr := s.mgr.lookup(req.Session)
			if perr != nil {
				s.fail(out, req.ID, perr, start)
				return
			}
			detail := sess.stats(time.Now())
			st.Session = &detail
		}
		out.send(&Response{ID: req.ID, OK: true, Stats: st})
		s.lat.Observe(time.Since(start))

	default:
		// DecodeRequest already rejected unknown verbs; keep a structured
		// answer anyway in case the two ever drift.
		s.fail(out, req.ID, errf(CodeUnknownVerb, "unknown verb %q", req.Verb), start)
	}
}
