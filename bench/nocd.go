package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"flatnet/internal/nocsvc"
	"flatnet/nocsvc/client"
)

// nocdNodes is the terminal count of the session network (16-ary 2-flat).
const nocdNodes = 256

func nocdOpen(seed uint64) client.OpenParams {
	return client.OpenParams{Topology: "flatfly", K: 16, N: 2, Routing: "ugal", Seed: seed}
}

// requestGen draws one client's transfer requests: seeded, src != dst,
// 8 to 512 bytes.
type requestGen struct{ r *rand.Rand }

func newRequestGen(seed uint64) *requestGen {
	return &requestGen{r: rand.New(rand.NewSource(int64(seed)))}
}

func (g *requestGen) next() client.EstimateParams {
	src := g.r.Intn(nocdNodes)
	dst := g.r.Intn(nocdNodes - 1)
	if dst >= src {
		dst++
	}
	return client.EstimateParams{Src: src, Dst: dst, Bytes: 8 + g.r.Intn(505)}
}

// nocdRig is one in-process server on TCP loopback with one connection and
// one session per closed-loop client.
type nocdRig struct {
	srv      *nocsvc.Server
	served   chan error
	addr     string
	clients  []*client.Client
	sessions []*client.Session
	openMS   []float64
}

func startNocd(e *runEnv, parent int) (*nocdRig, error) {
	rig := &nocdRig{srv: nocsvc.NewServer(nocsvc.ServerConfig{}), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.addr = ln.Addr().String()
	go func() { rig.served <- rig.srv.Serve(ln) }()
	for i := 0; i < e.nproc; i++ {
		if _, err := rig.open(e, parent, e.seed+uint64(i)); err != nil {
			rig.stop()
			return nil, err
		}
	}
	return rig, nil
}

// open dials a new connection and opens a session on it.
func (rig *nocdRig) open(e *runEnv, parent int, seed uint64) (*client.Session, error) {
	c, err := client.Dial(rig.addr)
	if err != nil {
		return nil, err
	}
	rig.clients = append(rig.clients, c)
	var s *client.Session
	d := e.tr.timed(parent, "setup.open_session", func() { s, err = c.OpenSession(nocdOpen(seed)) })
	if err != nil {
		return nil, err
	}
	rig.sessions = append(rig.sessions, s)
	rig.openMS = append(rig.openMS, d.Seconds()*1e3)
	return s, nil
}

// prime has every client send a stretch of estimates, all at once as in
// the timed phase, so connection buffers, session queues and the heap are
// at their working size before timing.
func (rig *nocdRig) prime(e *runEnv, parent int) error {
	errs := make([]error, len(rig.sessions))
	e.tr.timed(parent, "setup.prime", func() {
		var wg sync.WaitGroup
		for i, s := range rig.sessions {
			wg.Add(1)
			go func(i int, s *client.Session) {
				defer wg.Done()
				gen := newRequestGen(e.seed + 500 + uint64(i))
				for k := e.cycles(2000, 20); k > 0 && errs[i] == nil; k-- {
					req := gen.next()
					_, errs[i] = s.Estimate(req.Src, req.Dst, req.Bytes)
				}
			}(i, s)
		}
		wg.Wait()
	})
	return errors.Join(errs...)
}

// stop closes every connection and the server, and waits for its accept
// loop to return.
func (rig *nocdRig) stop() {
	for _, c := range rig.clients {
		c.Close()
	}
	rig.srv.Close()
	<-rig.served
}

// estimateSample is one completed request as its client saw it.
type estimateSample struct {
	doneS float64 // seconds since the timed phase started
	ms    float64
}

// clientLoad is what one closed-loop client sent and got back. requests
// and results keep only the prefix that enters sim_digest.
type clientLoad struct {
	samples   []estimateSample
	requests  []client.EstimateParams
	results   []client.EstimateResult
	errs      int
	saturated int
	firstErr  error
}

// runNocd is nocd_rpc: nproc closed-loop clients, each waiting for the
// reply to one estimate before sending the next.
func runNocd(e *runEnv) (*outcome, error) {
	o := &outcome{}
	var rig *nocdRig
	for rep := 0; rep < setupRepeats; rep++ {
		if rig != nil {
			rig.stop()
		}
		id := e.tr.begin(0, "setup")
		start := time.Now()
		var err error
		if rig, err = startNocd(e, id); err != nil {
			return nil, err
		}
		if err = rig.prime(e, id); err != nil {
			rig.stop()
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
		e.tr.end(id)
	}
	defer rig.stop()

	// The first digestN results of every client enter sim_digest.
	digestN := e.cycles(2000, 20)
	loads := make([]clientLoad, len(rig.sessions))

	measure := e.tr.begin(0, "measure")
	start := time.Now()
	end := e.deadline()
	var wg sync.WaitGroup
	for i := range loads {
		wg.Add(1)
		go func(i int, c *clientLoad) {
			defer wg.Done()
			gen := newRequestGen(e.seed + uint64(i))
			s := rig.sessions[i]
			for k := 0; k < digestN || time.Now().Before(end); k++ {
				req := gen.next()
				t := time.Now()
				res, err := s.Estimate(req.Src, req.Dst, req.Bytes)
				d := time.Since(t)
				// Every 256th request is traced as a span.
				if e.traced() && k%256 == 0 {
					e.tr.add(measure, fmt.Sprintf("request[%d.%d]", i, k), t, d, nil)
				}
				switch {
				case err != nil:
					c.errs++
					if c.firstErr == nil {
						c.firstErr = err
					}
				case res.Saturated:
					c.saturated++
				}
				c.samples = append(c.samples, estimateSample{doneS: time.Since(start).Seconds(), ms: d.Seconds() * 1e3})
				if k < digestN {
					c.results = append(c.results, res)
					c.requests = append(c.requests, req)
				}
			}
		}(i, &loads[i])
	}
	wg.Wait()
	e.tr.end(measure)

	// Windows are equal slices of the timed phase; requests that finished
	// after its end (the tail of the minimum count) are left out.
	const nWindows = 32
	width := e.seconds / nWindows
	o.windows = make([]window, nWindows)
	for i := range o.windows {
		o.windows[i].wall = width
	}
	var d digest
	var rtt []float64
	nErr, nSat := 0, 0
	for i, c := range loads {
		o.attempted += len(c.samples)
		if c.errs > 0 {
			o.failN(c.errs, "client %d: %d errors, first: %v", i, c.errs, c.firstErr)
		}
		if c.saturated > 0 {
			o.failN(c.saturated, "client %d: %d estimates saturated", i, c.saturated)
		}
		nErr += c.errs
		nSat += c.saturated
		for _, s := range c.samples {
			rtt = append(rtt, s.ms)
			if w := int(s.doneS / width); w < nWindows {
				o.windows[w].work++
				o.windows[w].ops = append(o.windows[w].ops, s.ms)
			}
		}
		for _, r := range c.results {
			d.add(r.Cycles, r.Hops, r.Packets)
		}
	}
	o.digest = d.sum()

	// Server-side view, read before the probes below add their own requests.
	served := rig.srv.StatsSnapshot(true)
	if err := nocdDeterminism(e, o, rig); err != nil {
		return nil, err
	}
	if e.traced() {
		clientP50 := median(rtt)
		var cycles, estimates int64
		var cps []float64
		for _, s := range served.SessionList {
			cycles += s.Cycles
			estimates += s.Estimates
			cps = append(cps, s.CyclesPerSec)
		}
		warm := int64(0)
		for _, s := range rig.sessions[:len(loads)] {
			warm += s.Info().WarmCycles
		}
		o.set("nocsvc.open_session_ms", median(rig.openMS))
		o.set("nocsvc.service_p50_us", served.Service.P50US)
		o.set("nocsvc.service_p99_us", served.Service.P99US)
		o.set("nocsvc.client_overhead_us", clientP50*1e3-served.Service.P50US)
		o.set("nocsvc.sim_cycles_per_estimate", float64(cycles-warm)/float64(estimates))
		o.set("nocsvc.session_cycles_per_s", median(cps))
		o.set("nocsvc.errors", float64(nErr))
		o.set("nocsvc.saturated", float64(nSat))
		if err := nocdProbes(e, o, rig, loads[0].requests, loads[0].results); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// nocdDeterminism opens two more sessions with one seed, sends both the
// same request stream and requires identical answers.
func nocdDeterminism(e *runEnv, o *outcome, rig *nocdRig) error {
	id := e.tr.begin(0, "check.determinism")
	defer e.tr.end(id)
	var answers [2][]client.EstimateResult
	for k := range answers {
		s, err := rig.open(e, id, e.seed+1000)
		if err != nil {
			return err
		}
		gen := newRequestGen(e.seed + 1000)
		for i := e.cycles(500, 20); i > 0; i-- {
			req := gen.next()
			res, err := s.Estimate(req.Src, req.Dst, req.Bytes)
			if err != nil {
				return err
			}
			answers[k] = append(answers[k], res)
		}
	}
	same := len(answers[0]) == len(answers[1])
	for i := 0; same && i < len(answers[0]); i++ {
		same = answers[0][i] == answers[1][i]
	}
	o.check(same, "two sessions with one seed and one request stream answered differently")
	return nil
}

// nocdProbes measures the protocol floor: the codec replayed over recorded
// requests and answers, and the round trip of a verb that does no
// simulation.
func nocdProbes(e *runEnv, o *outcome, rig *nocdRig, reqs []client.EstimateParams, answers []client.EstimateResult) error {
	sessionID := rig.sessions[0].ID()
	lines := make([][]byte, len(reqs))
	for i := range reqs {
		line, err := json.Marshal(nocsvc.Request{Version: nocsvc.ProtocolVersion, ID: int64(i + 1),
			Verb: nocsvc.VerbEstimate, Session: sessionID, Est: &reqs[i]})
		if err != nil {
			return err
		}
		lines[i] = line
	}
	id := e.tr.begin(0, "probe.decode")
	t := time.Now()
	for _, line := range lines {
		if _, perr := nocsvc.DecodeRequest(line); perr != nil {
			return perr
		}
	}
	o.set("nocsvc.decode_us_per_req", time.Since(t).Seconds()*1e6/float64(len(lines)))
	e.tr.end(id)

	id = e.tr.begin(0, "probe.encode")
	t = time.Now()
	for i := range answers {
		if _, err := nocsvc.EncodeResponse(&nocsvc.Response{ID: int64(i + 1), OK: true, Est: &answers[i]}); err != nil {
			return err
		}
	}
	o.set("nocsvc.encode_us_per_resp", time.Since(t).Seconds()*1e6/float64(len(answers)))
	e.tr.end(id)

	id = e.tr.begin(0, "probe.noop_rtt")
	var rtt []float64
	for i := e.cycles(1000, 20); i > 0; i-- {
		t := time.Now()
		if _, err := rig.clients[0].Stats(); err != nil {
			return err
		}
		rtt = append(rtt, time.Since(t).Seconds()*1e6)
	}
	o.set("nocsvc.noop_rtt_us", median(rtt))
	e.tr.end(id)
	return nil
}
