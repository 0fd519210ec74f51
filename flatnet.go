// Package flatnet is a library reproduction of Kim, Dally and Abts,
// "Flattened Butterfly: A Cost-Efficient Topology for High-Radix
// Networks" (ISCA 2007).
//
// It provides:
//
//   - the flattened-butterfly topology (k-ary n-flat) and the comparison
//     topologies the paper evaluates against it — conventional butterfly,
//     folded Clos, binary hypercube and generalized hypercube;
//   - a cycle-accurate flit-level network simulator with virtual-channel
//     input-queued routers, credit-based flow control, greedy/sequential
//     route allocators, Bernoulli and batch injection, and the paper's
//     warm-up/measure/drain methodology;
//   - the paper's five flattened-butterfly routing algorithms (MIN AD,
//     VAL, UGAL, UGAL-S, CLOS AD) plus per-topology baselines
//     (destination-based butterfly, adaptive folded Clos, e-cube);
//   - the §4 cost model (router, backplane/cable/repeater links, cabinet
//     packaging geometry) and the §5.3 power model;
//   - the high-radix successor topologies the flattened butterfly
//     inspired — Slim Fly (MMS diameter-2 graphs) and dragonfly — with
//     minimal, Valiant and UGAL routing, plus a graph-analytic
//     evaluation mode (AnalyzeTopology) for design-space comparisons at
//     scales cycle simulation cannot touch.
//
// The quickest way in:
//
//	ff, _ := flatnet.NewFlatFly(32, 2)            // 1024 nodes, radix 63
//	alg := flatnet.NewClosAD(ff)                  // the paper's best router
//	res, _ := flatnet.Run(ff, alg, flatnet.WithLoad(0.5))
//	fmt.Println(res.AvgLatency, res.AcceptedRate)
//
// Run's options select the traffic pattern, windows, seed and
// instrumentation (WithPattern, WithWarmup, WithMeasure, WithSeed,
// WithCheck, WithTelemetry, ...) on the paper's router; RunLoadPoint,
// LoadSweep and RunBatch are the explicit-configuration entry points
// underneath.
//
// The cmd/paperfigs binary regenerates every table and figure of the
// paper's evaluation; see EXPERIMENTS.md for the index.
package flatnet

import (
	"flatnet/internal/analysis"
	"flatnet/internal/check"
	"flatnet/internal/cost"
	"flatnet/internal/layout"
	"flatnet/internal/power"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/telemetry"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// Topology types.
type (
	// FlatFly is the paper's k-ary n-flat flattened butterfly.
	FlatFly = topo.FlatFly
	// Butterfly is a conventional k-ary n-fly.
	Butterfly = topo.Butterfly
	// GHC is a generalized hypercube.
	GHC = topo.GHC
	// SlimFly is the MMS diameter-2 topology (Besta & Hoefler).
	SlimFly = topo.SlimFly
	// Dragonfly is the hierarchical group topology (Kim, Dally, Scott &
	// Abts, ISCA 2008).
	Dragonfly = topo.Dragonfly
	// Topology is the interface all of the above satisfy.
	Topology = topo.Topology
	// Graph is the directed channel graph the simulator consumes.
	Graph = topo.Graph
	// NodeID identifies a terminal.
	NodeID = topo.NodeID
	// RouterID identifies a router.
	RouterID = topo.RouterID
)

// Topology constructors.
var (
	// NewFlatFly builds a k-ary n-flat.
	NewFlatFly = topo.NewFlatFly
	// NewOneDimFB builds a complete-graph 1-D flattened butterfly.
	NewOneDimFB = topo.NewOneDimFB
	// WithMultiplicity doubles (or more) every inter-router link (Fig 14a).
	WithMultiplicity = topo.WithMultiplicity
	// NewButterfly builds a k-ary n-fly.
	NewButterfly = topo.NewButterfly
	// NewFoldedClos builds a folded Clos with explicit parameters.
	NewFoldedClos = topo.NewFoldedClos
	// TaperedClosForNodes builds the §3.3 equal-bisection folded Clos.
	TaperedClosForNodes = topo.TaperedClosForNodes
	// NewHypercube builds a binary hypercube.
	NewHypercube = topo.NewHypercube
	// NewGHC builds a generalized hypercube.
	NewGHC = topo.NewGHC
	// NewTorus builds a k-ary n-cube.
	NewTorus = topo.NewTorus
	// NewSlimFly builds the MMS Slim Fly over GF(q) with p terminals per
	// router (p = 0 selects the balanced default).
	NewSlimFly = topo.NewSlimFly
	// NewDragonfly builds a dragonfly with p terminals per router, a
	// routers per group and h global channels per router (a = 0 and
	// p = 0 select the balanced a = 2h, p = h).
	NewDragonfly = topo.NewDragonfly
)

// Scaling relationships (§2.1, §5.1).
var (
	// NetworkSize returns N(k', n') for the Fig. 2 scaling curves.
	NetworkSize = topo.NetworkSize
	// ConfigsForN enumerates the (k, n) configurations of a network size
	// (Table 4 for N = 4096).
	ConfigsForN = topo.ConfigsForN
	// FixedRadixConfig selects the smallest dimensionality for a router
	// radix and target size (§5.1.2).
	FixedRadixConfig = topo.FixedRadixConfig
	// MaxNodesForRadix returns the largest network a radix supports at a
	// given dimensionality.
	MaxNodesForRadix = topo.MaxNodesForRadix
)

// Simulator types.
type (
	// Config holds router microarchitecture parameters.
	Config = sim.Config
	// RunConfig describes one open-loop measurement.
	RunConfig = sim.RunConfig
	// RunHooks are the Stop and Attach hooks every run config embeds.
	RunHooks = sim.RunHooks
	// ClosedLoopConfig describes a request-reply workload.
	ClosedLoopConfig = sim.ClosedLoopConfig
	// ClosedLoopResult reports a closed-loop run.
	ClosedLoopResult = sim.ClosedLoopResult
	// BatchConfig describes one Fig. 5 batch experiment.
	BatchConfig = sim.BatchConfig
	// BatchResult is one Fig. 5 batch experiment result.
	BatchResult = sim.BatchResult
	// Network is an instantiated simulation.
	Network = sim.Network
	// Packet is one packet in flight, of Config.PacketSize flits.
	Packet = sim.Packet
	// Hooks is a set of packet and pipeline callbacks for
	// Network.AttachHooks, e.g. Hooks{Deliver: ...} to watch deliveries.
	Hooks = sim.Hooks
	// Algorithm routes packets.
	Algorithm = sim.Algorithm
	// RouterView is the routing algorithm's view of router state.
	RouterView = sim.RouterView
	// TraceEntry is one packet arrival in a traffic trace.
	TraceEntry = sim.TraceEntry
	// CollectiveConfig describes one collective schedule (all-to-all or
	// ring all-reduce) run to end-to-end completion.
	CollectiveConfig = sim.CollectiveConfig
)

// Simulator entry points.
var (
	// NewNetwork builds a simulation over a channel graph.
	NewNetwork = sim.New
	// DefaultConfig mirrors the paper's §3.2 router parameters.
	DefaultConfig = sim.DefaultConfig
	// RunLoadPoint executes the warm-up/measure/drain methodology.
	RunLoadPoint = sim.RunLoadPoint
	// LoadSweep runs RunLoadPoint across offered loads.
	LoadSweep = sim.LoadSweep
	// SaturationThroughput measures accepted rate at full offered load.
	SaturationThroughput = sim.SaturationThroughput
	// RunBatch executes the Fig. 5 batch experiment.
	RunBatch = sim.RunBatch
	// WriteWorkloadJSONL writes a workload trace in the JSONL format
	// ({"cycle":C,"src":S,"dst":D,"size":K} lines); NewTraceScanner
	// streams one for Network.ReplayTrace without holding it in memory.
	WriteWorkloadJSONL = sim.WriteTraceJSONL
	NewTraceScanner    = sim.NewTraceScanner
	// RunCollective executes an all-to-all or ring all-reduce schedule
	// and measures its end-to-end completion cycles.
	RunCollective = sim.RunCollective
	// RunClosedLoop executes a request-reply (remote-memory-access)
	// workload with a per-node outstanding-request window.
	RunClosedLoop = sim.RunClosedLoop
	// Restore rebuilds a Network from a Network.Snapshot stream; the
	// restored network continues bit-identically to the original.
	Restore = sim.Restore
)

// Telemetry: router-pipeline probes, flit tracing and live metrics
// (see the Telemetry section of DESIGN.md). Probes and tracers are hook
// sets on the network's one instrumentation surface: any number compose
// on one run, and a network with none attached pays one empty-list check
// per pipeline site.
type (
	// ProbeConfig parameterizes Network.AttachProbes.
	ProbeConfig = sim.ProbeConfig
	// Probes is a network's attached probe registry: occupancy,
	// stall/allocator counters and windowed per-channel load series.
	Probes = sim.Probes
	// Tracer is a ring-buffered flit pipeline event tracer.
	Tracer = telemetry.Tracer
	// FlitEvent is one flit pipeline event (inject, route, VC alloc,
	// crossbar, eject).
	FlitEvent = telemetry.FlitEvent
)

var (
	// NewTracer builds a flit tracer retaining at most capacity events.
	NewTracer = telemetry.NewTracer
	// WriteChromeTrace and ReadChromeTrace serialize flit events in the
	// Chrome trace-event JSON format (chrome://tracing, ui.perfetto.dev);
	// the round trip is lossless.
	WriteChromeTrace = telemetry.WriteChromeTrace
	ReadChromeTrace  = telemetry.ReadChromeTrace
	// WriteTraceJSONL and ReadTraceJSONL serialize flit events as JSON
	// lines for line-oriented tools.
	WriteTraceJSONL = telemetry.WriteJSONL
	ReadTraceJSONL  = telemetry.ReadJSONL
	// NewTelemetryRegistry builds an empty named-metric registry.
	NewTelemetryRegistry = telemetry.NewRegistry
	// ServeTelemetry starts a live metrics endpoint on an address.
	ServeTelemetry = telemetry.Serve
)

// Runtime invariant sanitizer (internal/check): asserts flit
// conservation, credit round trips, virtual-channel ownership, packet
// wholeness and forward progress on every simulated cycle, without
// perturbing results. Like probes and the tracer it is a hook set, and
// zero-overhead-when-off.
type (
	// CheckConfig parameterizes the sanitizer (stride, watchdog window,
	// in-order checking, violation cap).
	CheckConfig = check.Config
)

var (
	// AttachChecker installs a sanitizer on a network; call Finalize at
	// end of run for the quiescence audit.
	AttachChecker = check.Attach
	// ArmCheck chains a sanitizer onto any harness's Attach hook (one per
	// network the harness builds); call the returned func after the run
	// to finalize them and report any violations.
	ArmCheck = check.Arm
)

// Traffic patterns and workload sources (see DESIGN.md §16).
type (
	// Pattern maps sources to destinations.
	Pattern = traffic.Pattern
	// Source is a full workload source: the arrival process (when each
	// node injects) plus the destination process (where packets go).
	// Install one with Network.SetSource or Run's WithSource.
	Source = traffic.Source
	// UnknownPatternError reports a pattern name missing from the
	// registry, listing the known names.
	UnknownPatternError = traffic.UnknownPatternError
)

var (
	// NewUniform is benign uniform-random traffic.
	NewUniform = traffic.NewUniform
	// NewWorstCase is the §3.2 adversarial pattern (router i to i+1).
	NewWorstCase = traffic.NewWorstCase
	// NewBernoulliSource wraps a pattern in the default memoryless
	// Bernoulli arrival process — the paper's open-loop injection (§3.2).
	NewBernoulliSource = traffic.NewBernoulli
	// NewOnOffSource wraps a pattern in the two-state on/off (MMPP)
	// arrival process: bursts at a peak rate with the duty cycle chosen
	// so the long-run average equals the offered load.
	NewOnOffSource = traffic.NewOnOff
	// BuildWorkload builds a registry pattern by name ("uniform",
	// "hotspot", sweep short forms UR/HS/..., see PatternNames) and wraps
	// it in the Bernoulli arrival process.
	BuildWorkload = traffic.BuildSource
	// PatternNames lists the registry's canonical pattern names.
	PatternNames = traffic.Names
	// PatternAliases returns the short-form alias table (UR, WC, HS, ...).
	PatternAliases = traffic.Aliases
)

// Routing algorithms.
var (
	// NewMinAD is §3.1 minimal adaptive routing.
	NewMinAD = routing.NewMinAD
	// NewValiant is §3.1 VAL.
	NewValiant = routing.NewValiant
	// NewUGAL is §3.1 UGAL with a greedy allocator.
	NewUGAL = routing.NewUGAL
	// NewUGALS is UGAL with a sequential allocator.
	NewUGALS = routing.NewUGALS
	// NewClosAD is §3.1 adaptive Clos routing on the flattened butterfly.
	NewClosAD = routing.NewClosAD
	// NewFlatFlyAlgorithm constructs any of the five by name.
	NewFlatFlyAlgorithm = routing.NewFlatFlyAlgorithm
	// NewButterflyDest is destination-based butterfly routing.
	NewButterflyDest = routing.NewButterflyDest
	// NewFoldedClosAdaptive is adaptive sequential folded-Clos routing.
	NewFoldedClosAdaptive = routing.NewFoldedClosAdaptive
	// NewECube is hypercube dimension-order routing.
	NewECube = routing.NewECube
	// NewTorusDOR is dateline dimension-order torus routing.
	NewTorusDOR = routing.NewTorusDOR
)

// Cost and power models (§4, §5.3).
var (
	// DefaultCostModel returns the Table 2 constants.
	DefaultCostModel = cost.DefaultModel
	// DefaultPackaging returns the Table 3 constants.
	DefaultPackaging = cost.DefaultPackaging
	// DefaultPowerModel returns the Table 5 constants.
	DefaultPowerModel = power.DefaultModel
	// CompareCost prices the four topologies at one size (Fig. 11).
	CompareCost = cost.Compare
	// CostSweep prices across sizes.
	CostSweep = cost.Sweep
	// ComparePower evaluates per-node power (Fig. 15).
	ComparePower = power.Compare
	// PowerSweep evaluates power across sizes.
	PowerSweep = power.Sweep
	// FlatFlyBOMForConfig builds a bill of materials for an explicit
	// (k, n') configuration (Fig. 13).
	FlatFlyBOMForConfig = cost.FlatFlyBOMForConfig
	// FlatFlyBOM builds the standard flattened-butterfly bill of
	// materials for a node count (§5.1.2 configuration selection).
	FlatFlyBOM = cost.FlatFlyBOM
	// GHCBOM builds a generalized-hypercube bill of materials (§2.3).
	GHCBOM = cost.GHCBOM
	// SlimFlyBOM and DragonflyBOM build the modern comparison
	// topologies' bills of materials under the paper's packaging model.
	SlimFlyBOM   = cost.SlimFlyBOM
	DragonflyBOM = cost.DragonflyBOM
	// ComparePowerModern evaluates FB vs Slim Fly vs dragonfly per-node
	// power at one size.
	ComparePowerModern = power.CompareModern
	// PriceBOM applies the cost model to a bill of materials.
	PriceBOM = cost.Price
)

// Physical packaging layout (§4.2, Figs. 8-9) and wire delay (§5.2).
// CableStats summarizes measured cable lengths.
type CableStats = layout.CableStats

var (
	// PlaceFlatFly, PlaceFoldedClos and PlaceHypercube package each
	// topology per the paper's Figs. 8-9.
	PlaceFlatFly    = layout.PlaceFlatFly
	PlaceFoldedClos = layout.PlaceFoldedClos
	PlaceHypercube  = layout.PlaceHypercube
	// CompareWireDelay runs the §5.2 wire-delay study.
	CompareWireDelay = layout.CompareWireDelay
)

// The channel-load bound on saturation throughput and its routing rules.
const LoadMinimal, LoadValiant = analysis.Minimal, analysis.Valiant

var (
	// LoadBound returns saturation, 1 / max(1, largest channel load), and
	// mean hops of a uniform, worst-case, tornado or fixed pattern.
	LoadBound = analysis.LoadBound
	// CreditLimitedChannelRate is min(1, depth/RTT) — the Fig. 12(b)
	// mechanism.
	CreditLimitedChannelRate = analysis.CreditLimitedChannelRate
)

// Graph-analytic evaluation (the EvalNet methodology): metrics from the
// channel graph alone — no cycle simulation — so 100k-endpoint design
// points evaluate in milliseconds (flatsim -analytic, sweep mode
// "analytic").
type (
	// AnalyticMetrics is the analytic summary of one topology instance:
	// diameter, average hops, path diversity and bisection bounds.
	AnalyticMetrics = analysis.Metrics
)

var (
	// AnalyzeTopology computes analytic metrics, exploiting router
	// automorphism orbits when the topology exposes them.
	AnalyzeTopology = analysis.AnalyzeTopology
	// AnalyzeGraph computes analytic metrics from any channel graph with
	// a parallel all-sources BFS sweep.
	AnalyzeGraph = analysis.Analyze
)
