package sim

import (
	"fmt"

	"flatnet/internal/rng"
	"flatnet/internal/stats"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// ClosedLoopConfig describes a request-reply workload: every node keeps
// Window requests outstanding (a remote-memory-access model; §1 of the
// paper: "the latency and bandwidth of the network largely establish the
// remote memory access latency and bandwidth"). Each delivered request
// triggers a reply from its destination; each delivered reply lets the
// originator issue a fresh request to a new Pattern-drawn destination.
type ClosedLoopConfig struct {
	// Window is the number of outstanding requests per node (>= 1).
	Window int
	// Pattern draws request destinations.
	Pattern traffic.Pattern
	// Warmup and Measure are windows in cycles; round trips completing
	// during the measurement window are recorded.
	Warmup, Measure int
	RunHooks
}

// ClosedLoopResult reports a closed-loop run.
type ClosedLoopResult struct {
	// AvgRoundTrip is the mean request-to-reply latency in cycles.
	AvgRoundTrip float64
	// P99RoundTrip is the 99th-percentile round trip.
	P99RoundTrip int
	// RequestRate is completed round trips per node per cycle.
	RequestRate float64
	// Completed counts measured round trips.
	Completed int64
}

// closedTxn tracks one in-flight transaction leg.
type closedTxn struct {
	origin  topo.NodeID
	started int64
	isReply bool
}

// RunClosedLoop executes the request-reply workload on a fresh Network.
// All traffic is trace-injected, so the configured Pattern is consulted
// only by the harness (for request destinations), never by the sources.
func RunClosedLoop(g *topo.Graph, alg Algorithm, cfg Config, clc ClosedLoopConfig) (ClosedLoopResult, error) {
	if clc.Window < 1 {
		return ClosedLoopResult{}, fmt.Errorf("sim: closed-loop window must be >= 1")
	}
	if clc.Warmup <= 0 || clc.Measure <= 0 {
		return ClosedLoopResult{}, fmt.Errorf("sim: closed-loop windows must be positive")
	}
	if clc.Pattern == nil {
		return ClosedLoopResult{}, fmt.Errorf("sim: closed-loop needs a pattern")
	}
	h, err := openHarness(g, alg, cfg, nil, clc.RunHooks)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	defer h.close()
	n := h.n

	// Transactions are matched to packets at materialization: source
	// queues are FIFO, so the k-th materialized packet of a node is its
	// k-th scheduled transaction leg.
	pending := make([][]closedTxn, g.NumNodes)
	live := make(map[int64]closedTxn, g.NumNodes*clc.Window)

	destRNG := rng.New(cfg.Seed ^ 0xc10de1009)
	hist := stats.NewHistogram(1 << 14)
	measStart := int64(clc.Warmup)
	measEnd := int64(clc.Warmup + clc.Measure)
	var completed int64
	var hookErr error

	send := func(from topo.NodeID, to topo.NodeID, t closedTxn) {
		if err := n.InjectAt(from, n.Cycle(), to); err != nil {
			hookErr = err
			return
		}
		pending[from] = append(pending[from], t)
	}
	issue := func(origin topo.NodeID) {
		dst := clc.Pattern.Dest(origin, destRNG)
		send(origin, dst, closedTxn{origin: origin, started: n.Cycle()})
	}

	n.AttachHooks(&Hooks{
		Materialize: func(p *Packet) {
			q := pending[p.Src]
			if len(q) == 0 {
				return
			}
			live[p.ID] = q[0]
			pending[p.Src] = q[1:]
		},
		Deliver: func(p *Packet, cycle int64) {
			t, ok := live[p.ID]
			if !ok {
				return
			}
			delete(live, p.ID)
			if t.isReply {
				if cycle >= measStart && cycle < measEnd {
					hist.Add(int(cycle - t.started))
					completed++
				}
				issue(t.origin)
				return
			}
			// Request delivered: destination sends the reply.
			send(p.Dst, t.origin, closedTxn{origin: t.origin, started: t.started, isReply: true})
		},
	})

	for node := 0; node < g.NumNodes; node++ {
		for w := 0; w < clc.Window; w++ {
			issue(topo.NodeID(node))
		}
	}
	for n.Cycle() < measEnd && hookErr == nil {
		if err := h.step(); err != nil {
			return ClosedLoopResult{}, err
		}
	}
	if hookErr != nil {
		return ClosedLoopResult{}, hookErr
	}
	return ClosedLoopResult{
		AvgRoundTrip: hist.Mean(),
		P99RoundTrip: hist.Percentile(0.99),
		RequestRate:  float64(completed) / (float64(g.NumNodes) * float64(clc.Measure)),
		Completed:    completed,
	}, nil
}
