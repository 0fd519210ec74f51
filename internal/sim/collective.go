package sim

import (
	"fmt"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// Collective kinds accepted by CollectiveConfig.Kind.
const (
	// CollectiveAllToAll is the personalized all-to-all exchange: N-1
	// barrier-synchronized phases, where phase r has every node i send
	// one transfer to node (i+r) mod N.
	CollectiveAllToAll = "alltoall"
	// CollectiveAllReduce is the ring all-reduce: 2(N-1) phases (N-1
	// reduce-scatter plus N-1 all-gather), each a neighbor exchange of
	// one chunk from node i to node (i+1) mod N.
	CollectiveAllReduce = "allreduce"
)

// CollectiveConfig describes one collective schedule run to completion
// on a freshly built network — the workload family that measures
// end-to-end completion time rather than steady-state latency.
type CollectiveConfig struct {
	// Kind selects the schedule: CollectiveAllToAll or
	// CollectiveAllReduce.
	Kind string
	// Packets is the payload of each phase transfer, in packets
	// (default 1). For all-reduce this is the per-chunk size.
	Packets int
	// Source, when non-nil, injects background traffic at Load on every
	// cycle of the run (warm-up included), so the collective contends
	// with it (traffic.NewBernoulli wraps a destination Pattern in the
	// default arrival process). Leaving it nil runs the collective on a
	// quiet network.
	Source traffic.Source
	// Load is the background offered load in flits per node per cycle;
	// only meaningful with a Source.
	Load float64
	// Warmup is how many cycles of background traffic to run before the
	// first phase (0 = none).
	Warmup int
	// MaxCycles bounds the whole run; 0 picks a default proportional to
	// the schedule size. Exceeding it is an error (the collective never
	// completed — the network is saturated).
	MaxCycles int64
	// Stop and Attach are RunConfig's Stop and Attach hooks.
	Stop   func() bool
	Attach func(n *Network)
}

// CollectiveResult reports one completed collective schedule.
type CollectiveResult struct {
	// Kind and Nodes echo the run.
	Kind  string `json:"kind"`
	Nodes int    `json:"nodes"`
	// Phases is the number of barrier-synchronized phases executed;
	// Transfers and Packets total the traffic moved.
	Phases    int   `json:"phases"`
	Transfers int   `json:"transfers"`
	Packets   int64 `json:"packets"`
	// Cycles is the end-to-end completion time: first phase start to
	// last delivery of the last phase, background warm-up excluded.
	Cycles int64 `json:"cycles"`
	// MaxPhaseCycles is the slowest single phase; AvgPhaseCycles the
	// mean over phases.
	MaxPhaseCycles int64   `json:"max_phase_cycles"`
	AvgPhaseCycles float64 `json:"avg_phase_cycles"`
}

// collectivePhases returns the phase count and the per-phase pair
// schedule for a kind. Every returned phase maps node i to its
// destination for that phase.
func collectivePhases(kind string, nodes int) (int, func(phase, i int) int, error) {
	switch kind {
	case CollectiveAllToAll:
		return nodes - 1, func(phase, i int) int { return (i + phase) % nodes }, nil
	case CollectiveAllReduce:
		// Both the reduce-scatter and all-gather halves are ring
		// neighbor exchanges; the chunk index differs but the traffic
		// does not.
		return 2 * (nodes - 1), func(phase, i int) int { return (i + 1) % nodes }, nil
	default:
		return 0, nil, fmt.Errorf("sim: unknown collective %q (have %s, %s)",
			kind, CollectiveAllToAll, CollectiveAllReduce)
	}
}

// RunCollective executes one collective schedule on a fresh network and
// measures its end-to-end completion. Each phase issues one StartTransfer
// per node and advances the network — background traffic included —
// until every transfer of the phase has drained, then the next phase
// begins: the barrier-synchronized model of collective libraries.
func RunCollective(g *topo.Graph, alg Algorithm, cfg Config, cc CollectiveConfig) (CollectiveResult, error) {
	nodes := g.NumNodes
	if nodes < 2 {
		return CollectiveResult{}, fmt.Errorf("sim: collective needs >= 2 nodes, got %d", nodes)
	}
	phases, dest, err := collectivePhases(cc.Kind, nodes)
	if err != nil {
		return CollectiveResult{}, err
	}
	packets := cc.Packets
	if packets < 1 {
		packets = 1
	}
	src := cc.Source
	if src == nil && cc.Load > 0 {
		return CollectiveResult{}, fmt.Errorf("sim: collective background load needs a Source")
	}

	h, err := openHarness(g, alg, cfg, nil, cc.Attach, cc.Stop)
	if err != nil {
		return CollectiveResult{}, err
	}
	defer h.close()
	n := h.n
	if src != nil {
		if err := n.SetSource(src); err != nil {
			return CollectiveResult{}, err
		}
	}
	advance := func() error {
		if src != nil && cc.Load > 0 {
			if err := n.Generate(cc.Load); err != nil {
				return err
			}
		}
		return h.step()
	}
	for i := 0; i < cc.Warmup; i++ {
		if err := advance(); err != nil {
			return CollectiveResult{}, err
		}
	}

	maxCycles := cc.MaxCycles
	if maxCycles <= 0 {
		maxCycles = int64(1000) * int64(phases) * int64(packets)
	}
	deadline := n.Cycle() + maxCycles

	res := CollectiveResult{Kind: cc.Kind, Nodes: nodes, Phases: phases}
	start := n.Cycle()
	trs := make([]*Transfer, 0, nodes)
	for phase := 1; phase <= phases; phase++ {
		trs = trs[:0]
		for i := 0; i < nodes; i++ {
			d := dest(phase, i)
			tr, err := n.StartTransfer(topo.NodeID(i), topo.NodeID(d), packets)
			if err != nil {
				return CollectiveResult{}, err
			}
			trs = append(trs, tr)
		}
		res.Transfers += nodes
		res.Packets += int64(nodes) * int64(packets)
		phaseStart := n.Cycle()
		for pending := len(trs); pending > 0; {
			if n.Cycle() >= deadline {
				return CollectiveResult{}, fmt.Errorf(
					"sim: collective %s did not complete phase %d/%d within %d cycles (saturated)",
					cc.Kind, phase, phases, maxCycles)
			}
			if err := advance(); err != nil {
				return CollectiveResult{}, err
			}
			pending = 0
			for _, tr := range trs {
				if !tr.Done() {
					pending++
				}
			}
		}
		pc := n.Cycle() - phaseStart
		if pc > res.MaxPhaseCycles {
			res.MaxPhaseCycles = pc
		}
	}
	res.Cycles = n.Cycle() - start
	res.AvgPhaseCycles = float64(res.Cycles) / float64(phases)
	return res, nil
}
