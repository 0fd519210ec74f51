package nocsvc

import (
	"sync"
	"testing"
	"time"
)

// testOpen returns normalized OpenParams for a small, warm-free flatfly
// session so lifecycle tests stay fast and deterministic.
func testOpen() OpenParams {
	p := OpenParams{Topology: "flatfly", K: 2, N: 2, Warmup: -1}
	p.normalize()
	return p
}

func testCfg() ServerConfig {
	return ServerConfig{
		MaxSessions:    4,
		MaxInflight:    4,
		IdleTimeout:    -1, // janitor off unless a test wants it
		EstimateBudget: 1 << 16,
		MaxNodes:       4096,
	}.withDefaults()
}

func TestSessionBackpressure(t *testing.T) {
	const inflight = 3
	s, perr := newSession("t1", testOpen(), 4096, inflight, 1<<16)
	if perr != nil {
		t.Fatal(perr)
	}

	// Stall the worker on the first command so the queue can fill.
	entered := make(chan struct{})
	release := make(chan struct{})
	if perr := s.submit(&cmd{respond: func([]EstimateResult, *Error) {
		close(entered)
		<-release
	}}); perr != nil {
		t.Fatal(perr)
	}
	<-entered

	codes := make(chan string, inflight)
	for i := 0; i < inflight; i++ {
		if perr := s.submit(&cmd{respond: func(_ []EstimateResult, perr *Error) {
			if perr != nil {
				codes <- perr.Code
			} else {
				codes <- ""
			}
		}}); perr != nil {
			t.Fatalf("fill %d: %v", i, perr)
		}
	}

	// The queue is full: the next submit must be rejected, not block.
	if perr := s.submit(&cmd{respond: func([]EstimateResult, *Error) {}}); perr == nil {
		t.Fatal("submit into a full queue succeeded")
	} else if perr.Code != CodeOverloaded {
		t.Fatalf("full queue rejected with %s, want %s", perr.Code, CodeOverloaded)
	}

	// Shut down with the queue still full: every queued command must be
	// answered (with shutdown), and close must join the worker.
	go func() { close(release) }()
	s.close()
	for i := 0; i < inflight; i++ {
		if code := <-codes; code != CodeShutdown && code != "" {
			t.Fatalf("queued cmd answered with %q", code)
		}
	}

	// Submits after close fail fast.
	if perr := s.submit(&cmd{respond: func([]EstimateResult, *Error) {}}); perr == nil || perr.Code != CodeNoSession {
		t.Fatalf("submit after close: %v, want %s", perr, CodeNoSession)
	}
}

func TestManagerConcurrentOpensRaceTheCap(t *testing.T) {
	cfg := testCfg()
	m := newManager(cfg)
	defer m.closeAll()

	const racers = 32
	var wg sync.WaitGroup
	ids := make(chan string, racers)
	var rejects, other int64
	var mu sync.Mutex
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, perr := m.open(testOpen())
			if perr == nil {
				ids <- s.id
				return
			}
			mu.Lock()
			if perr.Code == CodeSessionLimit {
				rejects++
			} else {
				other++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(ids)
	var opened []string
	for id := range ids {
		opened = append(opened, id)
	}
	if other != 0 {
		t.Fatalf("%d opens failed with codes other than %s", other, CodeSessionLimit)
	}
	if len(opened) == 0 || len(opened) > cfg.MaxSessions {
		t.Fatalf("%d sessions opened, want 1..%d", len(opened), cfg.MaxSessions)
	}
	if got := m.count(); got != len(opened) {
		t.Fatalf("live count %d, want %d", got, len(opened))
	}
	if int(rejects) != racers-len(opened) {
		t.Fatalf("%d rejects for %d losers", rejects, racers-len(opened))
	}

	// Closing releases slots: the cap can be reached again.
	for _, id := range opened {
		if perr := m.close(id); perr != nil {
			t.Fatalf("close %s: %v", id, perr)
		}
	}
	for i := 0; i < cfg.MaxSessions; i++ {
		if _, perr := m.open(testOpen()); perr != nil {
			t.Fatalf("reopen %d after release: %v", i, perr)
		}
	}
}

func TestManagerOpenWaitQueues(t *testing.T) {
	cfg := testCfg()
	cfg.MaxSessions = 1
	cfg.OpenWait = 5 * time.Second
	m := newManager(cfg)
	defer m.closeAll()

	first, perr := m.open(testOpen())
	if perr != nil {
		t.Fatal(perr)
	}
	got := make(chan *Error, 1)
	go func() {
		_, perr := m.open(testOpen())
		got <- perr
	}()
	// The queued open must not resolve while the slot is held...
	select {
	case perr := <-got:
		t.Fatalf("queued open resolved early: %v", perr)
	case <-time.After(50 * time.Millisecond):
	}
	// ...and must win promptly once it frees.
	if perr := m.close(first.id); perr != nil {
		t.Fatal(perr)
	}
	select {
	case perr := <-got:
		if perr != nil {
			t.Fatalf("queued open failed after slot freed: %v", perr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued open never resolved")
	}
}

func TestManagerIdleEviction(t *testing.T) {
	cfg := testCfg()
	cfg.IdleTimeout = 40 * time.Millisecond
	m := newManager(cfg)
	defer m.closeAll()

	s, perr := m.open(testOpen())
	if perr != nil {
		t.Fatal(perr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.count() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.evictions.Load(); got != 1 {
		t.Fatalf("evictions %d, want 1", got)
	}
	if _, perr := m.lookup(s.id); perr == nil || perr.Code != CodeNoSession {
		t.Fatalf("evicted session still resolves: %v", perr)
	}
	// The slot came back: a fresh open succeeds immediately.
	if _, perr := m.open(testOpen()); perr != nil {
		t.Fatalf("open after eviction: %v", perr)
	}
}

func TestManagerClosedRejectsOpens(t *testing.T) {
	m := newManager(testCfg())
	if _, perr := m.open(testOpen()); perr != nil {
		t.Fatal(perr)
	}
	m.closeAll()
	if got := m.count(); got != 0 {
		t.Fatalf("%d sessions survive closeAll", got)
	}
	if _, perr := m.open(testOpen()); perr == nil || perr.Code != CodeShutdown {
		t.Fatalf("open after closeAll: %v, want %s", perr, CodeShutdown)
	}
	m.closeAll() // idempotent
}

func TestSessionEstimateValidation(t *testing.T) {
	s, perr := newSession("t2", testOpen(), 4096, 4, 1<<16)
	if perr != nil {
		t.Fatal(perr)
	}
	defer s.close()
	if _, perr := s.estimate(EstimateParams{Src: 99, Dst: 0}); perr == nil || perr.Code != CodeBadRequest {
		t.Fatalf("out-of-range src: %v", perr)
	}
	if _, perr := s.estimate(EstimateParams{Src: 0, Dst: 99}); perr == nil || perr.Code != CodeBadRequest {
		t.Fatalf("out-of-range dst: %v", perr)
	}
}

func TestBuildNetworkRejects(t *testing.T) {
	p := testOpen()
	p.K = 32
	p.N = 3 // 32^3 = 32768 terminals
	if _, perr := newSession("r1", p, 4096, 4, 1<<16); perr == nil || perr.Code != CodeBadRequest {
		t.Fatalf("node cap not enforced: %v", perr)
	}
	// The largest topology the protocol bounds admit is refused from its
	// (k, n) alone, not built and then measured.
	p = OpenParams{Topology: "foldedclos", K: 1024, N: 6, Warmup: -1}
	p.normalize()
	if _, perr := newSession("r3", p, 4096, 4, 1<<16); perr == nil || perr.Code != CodeBadRequest {
		t.Fatalf("2^60-terminal open not refused: %v", perr)
	}
	p = testOpen()
	p.Routing = "bogus"
	if _, perr := newSession("r2", p, 0, 4, 1<<16); perr == nil || perr.Code != CodeBadRequest {
		t.Fatalf("bad routing accepted: %v", perr)
	}
}

func TestPacketsFor(t *testing.T) {
	cases := []struct{ bytes, flit, pkt, want int }{
		{0, 8, 1, 1},
		{1, 8, 1, 1},
		{8, 8, 1, 1},
		{9, 8, 1, 2},
		{64, 8, 4, 2},
		{65, 8, 4, 3},
	}
	for _, c := range cases {
		if got := packetsFor(c.bytes, c.flit, c.pkt); got != c.want {
			t.Errorf("packetsFor(%d,%d,%d) = %d, want %d", c.bytes, c.flit, c.pkt, got, c.want)
		}
	}
}
