package nocsvc_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"flatnet/internal/nocsvc"
	"flatnet/internal/topo"
	"flatnet/nocsvc/client"
)

// startServer serves a fresh nocsvc server on a loopback listener and
// returns its address; everything tears down with the test.
func startServer(t *testing.T, cfg nocsvc.ServerConfig) (*nocsvc.Server, string) {
	t.Helper()
	srv := nocsvc.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestServerEstimatesMatchOracle pins the service against the paper's
// zero-load model: with no background load, a warmed flatfly session's
// single-packet estimate must land within one cycle of the analytic
// zero-load latency (hops + ejection) for every source/destination pair.
func TestServerEstimatesMatchOracle(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const k, n = 4, 2
	sess, err := c.OpenSession(client.OpenParams{Topology: "flatfly", K: k, N: n})
	if err != nil {
		t.Fatal(err)
	}
	f, err := topo.NewFlatFly(k, n)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Graph()
	if sess.Info().Nodes != g.NumNodes {
		t.Fatalf("session reports %d nodes, topology has %d", sess.Info().Nodes, g.NumNodes)
	}

	var items []client.EstimateParams
	for src := 0; src < g.NumNodes; src++ {
		for dst := 0; dst < g.NumNodes; dst++ {
			if src == dst {
				continue
			}
			items = append(items, client.EstimateParams{Src: src, Dst: dst, Bytes: 8})
		}
	}
	results, err := sess.BatchEstimate(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		src, dst := items[i].Src, items[i].Dst
		// Zero-load single-packet latency: hop count on minimal channels
		// plus the 1-cycle ejection (routing.ZeroLoadModel with unit
		// latencies and 1-flit packets).
		want := int64(f.MinHops(g.NodeRouter[src], g.NodeRouter[dst]) + 1)
		if diff := r.Cycles - want; diff < -1 || diff > 1 {
			t.Fatalf("%d->%d: %d cycles, oracle %d (|diff| > 1)", src, dst, r.Cycles, want)
		}
		if r.Saturated {
			t.Fatalf("%d->%d saturated at load 0", src, dst)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Estimate(0, 1, 8); err == nil {
		t.Fatal("estimate on a closed session succeeded")
	}
}

// TestServerLoadedEstimatesSlower checks congestion-awareness: the same
// transfer estimated under heavy background load must not beat its
// zero-load estimate. A twin of the loaded session opened with the inert
// "workers" field must answer exactly what the loaded session answers.
func TestServerLoadedEstimatesSlower(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	idle, err := c.OpenSession(client.OpenParams{Topology: "flatfly", K: 4, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := c.OpenSession(client.OpenParams{Topology: "flatfly", K: 4, N: 2, Load: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Info().WarmCycles == 0 {
		t.Fatal("loaded session did not warm")
	}
	twin, err := c.OpenSession(client.OpenParams{Topology: "flatfly", K: 4, N: 2, Load: 0.35, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var idleSum, loadedSum int64
	for i := 0; i < 32; i++ {
		src, dst := i%16, (i*7+3)%16
		if src == dst {
			continue
		}
		ri, err := idle.Estimate(src, dst, 64)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := loaded.Estimate(src, dst, 64)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := twin.Estimate(src, dst, 64)
		if err != nil {
			t.Fatal(err)
		}
		if rt != rl {
			t.Fatalf("%d->%d: session opened with workers=4 answered %+v, one without %+v", src, dst, rt, rl)
		}
		idleSum += ri.Cycles
		loadedSum += rl.Cycles
	}
	if loadedSum < idleSum {
		t.Fatalf("loaded estimates (%d total cycles) beat idle (%d)", loadedSum, idleSum)
	}
}

// TestServerProtocolErrors drives a raw connection with hostile lines
// and checks each is answered with a structured error, id-correlated
// where one was parseable.
func TestServerProtocolErrors(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	roundTrip := func(line string) nocsvc.Response {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		raw, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		resp, err := nocsvc.DecodeResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := roundTrip(`this is not json`); resp.Err == nil || resp.Err.Code != nocsvc.CodeBadRequest {
		t.Fatalf("garbage line: %+v", resp)
	}
	if resp := roundTrip(`{"v":1,"id":41,"verb":"warp"}`); resp.Err == nil || resp.Err.Code != nocsvc.CodeUnknownVerb || resp.ID != 41 {
		t.Fatalf("unknown verb: %+v", resp)
	}
	if resp := roundTrip(`{"v":1,"id":42,"verb":"estimate","session":"nope","est":{"src":0,"dst":1,"bytes":8}}`); resp.Err == nil || resp.Err.Code != nocsvc.CodeNoSession || resp.ID != 42 {
		t.Fatalf("missing session: %+v", resp)
	}
	if resp := roundTrip(`{"v":3,"id":43,"verb":"stats"}`); resp.Err == nil || resp.Err.Code != nocsvc.CodeBadVersion {
		t.Fatalf("bad version: %+v", resp)
	}
	// The server stays healthy after errors.
	if resp := roundTrip(`{"v":1,"id":44,"verb":"stats"}`); !resp.OK || resp.Stats == nil {
		t.Fatalf("stats after errors: %+v", resp)
	} else if resp.Stats.Server.Errors < 4 {
		t.Fatalf("error counter %d, want >= 4", resp.Stats.Server.Errors)
	}
}

// TestServerLineTooLong sends an oversized line and expects a
// structured line_too_long error followed by connection close.
func TestServerLineTooLong(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	huge := strings.Repeat("x", nocsvc.MaxLineBytes+16)
	if _, err := fmt.Fprintf(conn, "%s\n", huge); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)
	raw, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	resp, err := nocsvc.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == nil || resp.Err.Code != nocsvc.CodeLineTooLong {
		t.Fatalf("oversized line: %+v", resp)
	}
	if _, err := rd.ReadBytes('\n'); err == nil {
		t.Fatal("connection stayed open after an unframeable line")
	}
}

// TestServerSessionLimit exercises admission control through the wire.
func TestServerSessionLimit(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{MaxSessions: 2})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	open := func() (*client.Session, error) {
		return c.OpenSession(client.OpenParams{Topology: "flatfly", K: 2, N: 2, Warmup: -1})
	}
	s1, err := open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open(); err != nil {
		t.Fatal(err)
	}
	_, err = open()
	perr, ok := err.(*client.Error)
	if !ok || perr.Code != nocsvc.CodeSessionLimit {
		t.Fatalf("third open: %v, want %s", err, nocsvc.CodeSessionLimit)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := open(); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

// TestServerSoak is the acceptance soak: 64 concurrent sessions, 1000
// estimates each, zero protocol errors — run under -race by make race.
func TestServerSoak(t *testing.T) {
	sessions, perSession := 64, 1000
	if testing.Short() {
		sessions, perSession = 8, 200
	}
	srv, addr := startServer(t, nocsvc.ServerConfig{MaxSessions: sessions})

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			sess, err := c.OpenSession(client.OpenParams{
				Topology: "flatfly", K: 4, N: 2,
				Seed: uint64(w + 1), Warmup: -1,
			})
			if err != nil {
				errs <- fmt.Errorf("worker %d open: %w", w, err)
				return
			}
			nodes := sess.Info().Nodes
			const chunk = 50
			for done := 0; done < perSession; done += chunk {
				items := make([]client.EstimateParams, chunk)
				for i := range items {
					v := w*perSession + done + i
					src := v % nodes
					dst := (v*13 + 7) % nodes
					if dst == src {
						dst = (dst + 1) % nodes
					}
					items[i] = client.EstimateParams{Src: src, Dst: dst, Bytes: 8 * (1 + v%16)}
				}
				results, err := sess.BatchEstimate(items)
				if err != nil {
					errs <- fmt.Errorf("worker %d batch at %d: %w", w, done, err)
					return
				}
				for i, r := range results {
					if r.Cycles <= 0 {
						errs <- fmt.Errorf("worker %d item %d: nonpositive latency %d", w, done+i, r.Cycles)
						return
					}
				}
			}
			if _, err := sess.Stats(); err != nil {
				errs <- fmt.Errorf("worker %d stats: %w", w, err)
				return
			}
			if err := sess.Close(); err != nil {
				errs <- fmt.Errorf("worker %d close: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.StatsSnapshot(false)
	if want := int64(sessions * perSession); st.Estimates != want {
		t.Errorf("served %d estimates, want %d", st.Estimates, want)
	}
	if st.Errors != 0 {
		t.Errorf("%d protocol errors during soak", st.Errors)
	}
	if st.Sessions != 0 {
		t.Errorf("%d sessions leaked", st.Sessions)
	}
	if st.PeakSessions > int64(sessions) {
		t.Errorf("peak %d exceeded the cap %d", st.PeakSessions, sessions)
	}
}

// TestServerCloseUnderLoad shuts the server down with estimates in
// flight; clients must see errors or EOF, never a hang or panic.
func TestServerCloseUnderLoad(t *testing.T) {
	srv, addr := startServer(t, nocsvc.ServerConfig{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.OpenSession(client.OpenParams{Topology: "flatfly", K: 4, N: 2, Load: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			if _, err := sess.Estimate(i%16, (i+5)%16, 64); err != nil {
				return
			}
		}
	}()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}
