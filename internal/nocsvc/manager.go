package nocsvc

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// manager owns session lifecycle: admission control against the session
// cap, the id → session table, and idle eviction.
type manager struct {
	cfg ServerConfig

	// slots is the admission semaphore: one token held per live session
	// (and per open in flight), capacity MaxSessions.
	slots chan struct{}

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int64
	closed   bool

	// Server-side checkpoint store: snapshots travel by id, never over
	// the wire (a warmed network can exceed MaxLineBytes). The store is
	// capped; taking a checkpoint past the cap evicts the oldest.
	ckptMu    sync.Mutex
	ckpts     map[string]*checkpointEntry
	ckptOrder []string
	nextCkpt  int64

	janitorStop chan struct{}
	janitorDone chan struct{}

	opens     atomic.Int64
	rejects   atomic.Int64
	evictions atomic.Int64
	peak      atomic.Int64
	clones    atomic.Int64
}

// checkpointEntry is one stored snapshot plus the session parameters
// needed to rebuild its network around it.
type checkpointEntry struct {
	p    OpenParams
	data []byte
}

func newManager(cfg ServerConfig) *manager {
	m := &manager{
		cfg:         cfg,
		slots:       make(chan struct{}, cfg.MaxSessions),
		sessions:    make(map[string]*session),
		ckpts:       make(map[string]*checkpointEntry),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go m.janitor()
	return m
}

// open admits, builds and warms a new session. Admission control: when
// the daemon is at its session cap, the open waits up to OpenWait for a
// slot to free (a bounded queue of opens), then rejects with
// CodeSessionLimit.
func (m *manager) open(p OpenParams) (*session, *Error) {
	s, perr := m.admitAndBuild(func(id string) (*session, *Error) {
		return newSession(id, p, m.cfg.MaxNodes, m.cfg.MaxInflight, int64(m.cfg.EstimateBudget))
	})
	if perr != nil {
		return nil, perr
	}
	m.opens.Add(1)
	return s, nil
}

// clone admits a new session restored from a stored checkpoint, under
// the same admission control as open. The clone skips warm-up entirely:
// it starts at the checkpointed cycle, bit-identical to the session the
// snapshot was taken from.
func (m *manager) clone(ckptID string) (*session, *Error) {
	e, perr := m.getCheckpoint(ckptID)
	if perr != nil {
		return nil, perr
	}
	s, perr := m.admitAndBuild(func(id string) (*session, *Error) {
		return newSessionFromSnapshot(id, e.p, e.data, m.cfg.MaxNodes, m.cfg.MaxInflight, int64(m.cfg.EstimateBudget))
	})
	if perr != nil {
		return nil, perr
	}
	m.opens.Add(1)
	m.clones.Add(1)
	return s, nil
}

// admitAndBuild runs the shared open/clone lifecycle: acquire a session
// slot (waiting up to OpenWait), allocate an id, build via the supplied
// constructor outside the table lock (opens of large networks must not
// block estimates on other sessions), then install the session.
func (m *manager) admitAndBuild(build func(id string) (*session, *Error)) (*session, *Error) {
	select {
	case m.slots <- struct{}{}:
	default:
		if m.cfg.OpenWait <= 0 {
			m.rejects.Add(1)
			return nil, errf(CodeSessionLimit,
				"at the session cap of %d", m.cfg.MaxSessions)
		}
		t := time.NewTimer(m.cfg.OpenWait)
		select {
		case m.slots <- struct{}{}:
			t.Stop()
		case <-t.C:
			m.rejects.Add(1)
			return nil, errf(CodeSessionLimit,
				"at the session cap of %d (waited %v)", m.cfg.MaxSessions, m.cfg.OpenWait)
		}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.slots
		return nil, errf(CodeShutdown, "server shutting down")
	}
	m.nextID++
	id := fmt.Sprintf("s%d", m.nextID)
	m.mu.Unlock()

	s, perr := build(id)
	if perr != nil {
		<-m.slots
		return nil, perr
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		s.close()
		<-m.slots
		return nil, errf(CodeShutdown, "server shutting down")
	}
	m.sessions[id] = s
	if n := int64(len(m.sessions)); n > m.peak.Load() {
		m.peak.Store(n)
	}
	m.mu.Unlock()
	return s, nil
}

// checkpoint stores a snapshot plus its session parameters and returns
// the checkpoint id. The store is a capped FIFO: exceeding
// MaxCheckpoints evicts the oldest entry.
func (m *manager) checkpoint(p OpenParams, data []byte) string {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	m.nextCkpt++
	id := fmt.Sprintf("c%d", m.nextCkpt)
	m.ckpts[id] = &checkpointEntry{p: p, data: data}
	m.ckptOrder = append(m.ckptOrder, id)
	for len(m.ckptOrder) > m.cfg.MaxCheckpoints {
		evict := m.ckptOrder[0]
		m.ckptOrder = m.ckptOrder[1:]
		delete(m.ckpts, evict)
	}
	return id
}

// getCheckpoint resolves a checkpoint id.
func (m *manager) getCheckpoint(id string) (*checkpointEntry, *Error) {
	m.ckptMu.Lock()
	e := m.ckpts[id]
	m.ckptMu.Unlock()
	if e == nil {
		return nil, errf(CodeNoCheckpoint, "no checkpoint %q (never taken, or evicted)", id)
	}
	return e, nil
}

// checkpointCount returns the number of stored checkpoints.
func (m *manager) checkpointCount() int {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	return len(m.ckpts)
}

// lookup resolves a session id.
func (m *manager) lookup(id string) (*session, *Error) {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return nil, errf(CodeNoSession, "no session %q", id)
	}
	return s, nil
}

// close removes and shuts down one session, releasing its slot.
func (m *manager) close(id string) *Error {
	m.mu.Lock()
	s := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if s == nil {
		return errf(CodeNoSession, "no session %q", id)
	}
	s.close()
	<-m.slots
	return nil
}

// closeAll shuts every session down and stops the janitor; further opens
// fail with CodeShutdown.
func (m *manager) closeAll() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	victims := make([]*session, 0, len(m.sessions))
	for id, s := range m.sessions {
		victims = append(victims, s)
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	close(m.janitorStop)
	for _, s := range victims {
		s.close()
		<-m.slots
	}
	<-m.janitorDone
}

// janitor evicts sessions idle past IdleTimeout, scanning at a quarter
// of the timeout.
func (m *manager) janitor() {
	defer close(m.janitorDone)
	if m.cfg.IdleTimeout <= 0 {
		<-m.janitorStop
		return
	}
	period := m.cfg.IdleTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case now := <-tick.C:
			// Each idle session leaves the table and is counted evicted
			// in one critical section, so a reader that sees it gone
			// also sees its eviction.
			var idle []*session
			m.mu.Lock()
			for id, s := range m.sessions {
				if s.idleFor(now) > m.cfg.IdleTimeout {
					delete(m.sessions, id)
					m.evictions.Add(1)
					idle = append(idle, s)
				}
			}
			m.mu.Unlock()
			for _, s := range idle {
				s.close()
				<-m.slots
			}
		}
	}
}

// count returns the live session count.
func (m *manager) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// snapshot lists every live session's stats, ordered by id for stable
// output.
func (m *manager) snapshot(now time.Time) []SessionStats {
	m.mu.Lock()
	all := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	out := make([]SessionStats, 0, len(all))
	for _, s := range all {
		out = append(out, s.stats(now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
