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
// Run's options select the traffic pattern, windows, router
// configuration and instrumentation (WithPattern, WithWarmup,
// WithMeasure, WithCheck, WithTelemetry, ...); RunLoadPoint, LoadSweep
// and RunBatch are the explicit-configuration entry points underneath.
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
	// OneDimFB is the single-dimension flattened butterfly generalized to
	// arbitrary router counts (Fig. 14(b)).
	OneDimFB = topo.OneDimFB
	// Butterfly is a conventional k-ary n-fly.
	Butterfly = topo.Butterfly
	// FoldedClos is a two-level folded Clos / fat tree.
	FoldedClos = topo.FoldedClos
	// Hypercube is a binary hypercube.
	Hypercube = topo.Hypercube
	// GHC is a generalized hypercube.
	GHC = topo.GHC
	// Torus is a k-ary n-cube, the low-radix baseline of §1.
	Torus = topo.Torus
	// SlimFly is the MMS diameter-2 topology (Besta & Hoefler).
	SlimFly = topo.SlimFly
	// Dragonfly is the hierarchical group topology (Kim, Dally, Scott &
	// Abts, ISCA 2008).
	Dragonfly = topo.Dragonfly
	// ParamError is the structured validation error every topology
	// constructor returns for an invalid parameter.
	ParamError = topo.ParamError
	// Topology is the interface all of the above satisfy.
	Topology = topo.Topology
	// Graph is the directed channel graph the simulator consumes.
	Graph = topo.Graph
	// NodeID identifies a terminal.
	NodeID = topo.NodeID
	// RouterID identifies a router.
	RouterID = topo.RouterID
	// FFOption configures NewFlatFly.
	FFOption = topo.FlatFlyOption
	// FFConfig is one (k, n) flattened-butterfly configuration (Table 4).
	FFConfig = topo.FlatFlyConfig
)

// Topology constructors.
var (
	// NewFlatFly builds a k-ary n-flat.
	NewFlatFly = topo.NewFlatFly
	// NewOneDimFB builds a complete-graph 1-D flattened butterfly.
	NewOneDimFB = topo.NewOneDimFB
	// WithMultiplicity doubles (or more) every inter-router link (Fig 14a).
	WithMultiplicity = topo.WithMultiplicity
	// WithChannelLatency sets inter-router channel latency in cycles.
	WithChannelLatency = topo.WithChannelLatency
	// NewButterfly builds a k-ary n-fly.
	NewButterfly = topo.NewButterfly
	// NewDilatedButterfly builds a k-ary n-fly with replicated channels
	// (the §6 dilated-butterfly alternative).
	NewDilatedButterfly = topo.NewDilatedButterfly
	// NewFoldedClos builds a folded Clos with explicit parameters.
	NewFoldedClos = topo.NewFoldedClos
	// TaperedClosForNodes builds the §3.3 equal-bisection folded Clos.
	TaperedClosForNodes = topo.TaperedClosForNodes
	// NewHypercube builds a binary hypercube.
	NewHypercube = topo.NewHypercube
	// NewConcentratedHypercube builds a hypercube with several terminals
	// per router (the paper's footnote 10 configuration).
	NewConcentratedHypercube = topo.NewConcentratedHypercube
	// NewGHC builds a generalized hypercube.
	NewGHC = topo.NewGHC
	// NewTorus builds a k-ary n-cube.
	NewTorus = topo.NewTorus
	// NewSlimFly builds the MMS Slim Fly over GF(q) with p terminals per
	// router (p = 0 selects the balanced default).
	NewSlimFly = topo.NewSlimFly
	// SlimFlyDefaultConc is the balanced terminals-per-router for a field
	// size: ceil(k'/2).
	SlimFlyDefaultConc = topo.SlimFlyDefaultConc
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
	// ClosedLoopConfig describes a request-reply workload.
	ClosedLoopConfig = sim.ClosedLoopConfig
	// ClosedLoopResult reports a closed-loop run.
	ClosedLoopResult = sim.ClosedLoopResult
	// LoadPointResult is one measured (load, latency, throughput) sample.
	LoadPointResult = sim.LoadPointResult
	// BatchConfig describes one Fig. 5 batch experiment.
	BatchConfig = sim.BatchConfig
	// BatchResult is one Fig. 5 batch experiment result.
	BatchResult = sim.BatchResult
	// Network is an instantiated simulation.
	Network = sim.Network
	// Packet is a single-flit packet.
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
	// ChannelLoad reports per-channel traffic for utilization analysis.
	ChannelLoad = sim.ChannelLoad
	// Transfer tracks one measured multi-packet transfer injected into a
	// live network via Network.StartTransfer — the primitive behind the
	// nocd co-simulation service (internal/nocsvc).
	Transfer = sim.Transfer
	// CollectiveConfig describes one collective schedule (all-to-all or
	// ring all-reduce) run to end-to-end completion.
	CollectiveConfig = sim.CollectiveConfig
	// CollectiveResult reports a completed collective schedule.
	CollectiveResult = sim.CollectiveResult
	// TraceScanner streams a JSONL workload trace with bounded memory;
	// feed it to Network.ReplayTrace.
	TraceScanner = sim.TraceScanner
)

// Collective kinds for CollectiveConfig.Kind.
const (
	CollectiveAllToAll  = sim.CollectiveAllToAll
	CollectiveAllReduce = sim.CollectiveAllReduce
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
	// WriteWorkloadJSONL and ReadWorkloadJSONL serialize workload traces
	// in the JSONL format ({"cycle":C,"src":S,"dst":D,"size":K} lines);
	// NewTraceScanner streams one for Network.ReplayTrace without
	// holding it in memory.
	WriteWorkloadJSONL = sim.WriteTraceJSONL
	ReadWorkloadJSONL  = sim.ReadTraceJSONL
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
	// ProbeChannel is one instrumented channel's windowed load view.
	ProbeChannel = sim.ProbeChannel
	// Tracer is a ring-buffered flit pipeline event tracer.
	Tracer = telemetry.Tracer
	// FlitEvent is one flit pipeline event (inject, route, VC alloc,
	// crossbar, eject).
	FlitEvent = telemetry.FlitEvent
	// TelemetryRegistry names counters and gauges for a metrics endpoint.
	TelemetryRegistry = telemetry.Registry
	// TelemetryServer is a live /debug/vars + /debug/pprof HTTP endpoint.
	TelemetryServer = telemetry.Server
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
	// CheckViolation is one recorded invariant violation with cycle and
	// channel context.
	CheckViolation = check.Violation
	// Sanitizer is an attached runtime checker.
	Sanitizer = check.Sanitizer
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
	// PatternCtx parameterizes BuildPattern/BuildWorkload — network size,
	// seed, concentration for the group patterns, hot set for
	// hotspot/incast.
	PatternCtx = traffic.BuildCtx
	// UnknownPatternError reports a pattern name missing from the
	// registry, listing the known names.
	UnknownPatternError = traffic.UnknownPatternError
)

var (
	// NewUniform is benign uniform-random traffic.
	NewUniform = traffic.NewUniform
	// NewWorstCase is the §3.2 adversarial pattern (router i to i+1).
	NewWorstCase = traffic.NewWorstCase
	// NewBitComplement, NewTranspose, NewShuffle, NewTornado, NewRandPerm
	// and NewFixed are additional standard patterns.
	NewBitComplement = traffic.NewBitComplement
	NewTranspose     = traffic.NewTranspose
	NewShuffle       = traffic.NewShuffle
	NewTornado       = traffic.NewTornado
	NewRandPerm      = traffic.NewRandPerm
	NewFixed         = traffic.NewFixed
	// NewHotspot skews a fraction of uniform traffic onto a hot node set;
	// NewIncast is its many-to-one degenerate (every node to one sink).
	NewHotspot = traffic.NewHotspot
	NewIncast  = traffic.NewIncast
	// NewBernoulliSource wraps a pattern in the default memoryless
	// Bernoulli arrival process — the paper's open-loop injection (§3.2).
	NewBernoulliSource = traffic.NewBernoulli
	// NewOnOffSource wraps a pattern in the two-state on/off (MMPP)
	// arrival process: bursts at a peak rate with the duty cycle chosen
	// so the long-run average equals the offered load.
	NewOnOffSource = traffic.NewOnOff
	// BuildPattern constructs a registry pattern by name ("uniform",
	// "hotspot", sweep short forms UR/HS/..., see PatternNames);
	// BuildWorkload wraps it in the Bernoulli arrival process.
	BuildPattern  = traffic.Build
	BuildWorkload = traffic.BuildSource
	// PatternNames lists the registry's canonical pattern names.
	PatternNames = traffic.Names
	// CanonicalPattern resolves a name or alias to its registry name;
	// PatternAliases returns the short-form alias table (UR, WC, HS, ...).
	CanonicalPattern = traffic.Canonical
	PatternAliases   = traffic.Aliases
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
	// NewGHCMinAdaptive is minimal adaptive GHC routing.
	NewGHCMinAdaptive = routing.NewGHCMinAdaptive
	// NewTorusDOR is dateline dimension-order torus routing.
	NewTorusDOR = routing.NewTorusDOR
	// NewSlimFlyAlgorithm constructs Slim Fly routing by name:
	// "min", "val", "ugal" or "ugal-s".
	NewSlimFlyAlgorithm = routing.NewSlimFlyAlgorithm
	// NewDragonflyAlgorithm constructs dragonfly routing by name:
	// "min", "val", "ugal" or "ugal-s".
	NewDragonflyAlgorithm = routing.NewDragonflyAlgorithm
)

// Cost and power models (§4, §5.3).
type (
	// CostModel holds the Table 2 constants.
	CostModel = cost.Model
	// Packaging holds the Table 3 constants.
	Packaging = cost.Packaging
	// CostBreakdown is a priced bill of materials.
	CostBreakdown = cost.Breakdown
	// CostComparison compares the four §4.3 topologies at one size.
	CostComparison = cost.Comparison
	// PowerModel holds the Table 5 constants.
	PowerModel = power.Model
	// PowerComparison compares per-node power at one size.
	PowerComparison = power.Comparison
	// ModernPowerComparison compares the flattened butterfly against
	// Slim Fly and dragonfly at one size.
	ModernPowerComparison = power.ModernComparison
	// BOM is a topology's bill of materials.
	BOM = cost.BOM
)

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
	// DilatedButterflyBOM prices the §6 dilated-butterfly alternative.
	DilatedButterflyBOM = cost.DilatedButterflyBOM
	// FoldedClosBOM, ButterflyBOM and HypercubeBOM build the comparison
	// topologies' bills of materials.
	FoldedClosBOM = cost.FoldedClosBOM
	ButterflyBOM  = cost.ButterflyBOM
	HypercubeBOM  = cost.HypercubeBOM
	// SlimFlyBOM and DragonflyBOM build the modern comparison
	// topologies' bills of materials under the paper's packaging model.
	SlimFlyBOM   = cost.SlimFlyBOM
	DragonflyBOM = cost.DragonflyBOM
	// ComparePowerModern evaluates FB vs Slim Fly vs dragonfly per-node
	// power at one size; PowerSweepModern runs it across sizes.
	ComparePowerModern = power.CompareModern
	PowerSweepModern   = power.SweepModern
	// PriceBOM applies the cost model to a bill of materials.
	PriceBOM = cost.Price
)

// Physical packaging layout (§4.2, Figs. 8-9) and wire delay (§5.2).
type (
	// Placement assigns routers to cabinets on a floor plan.
	Placement = layout.Placement
	// FloorPlan arranges cabinets on the machine-room floor.
	FloorPlan = layout.FloorPlan
	// CableStats summarizes measured cable lengths.
	CableStats = layout.CableStats
	// WireDelayComparison is the §5.2 FB-vs-Clos wire-distance study.
	WireDelayComparison = layout.WireDelayComparison
)

var (
	// NewFloorPlan lays out cabinets near-square.
	NewFloorPlan = layout.NewFloorPlan
	// PlaceFlatFly, PlaceFoldedClos, PlaceHypercube and PlaceButterfly
	// package each topology per the paper's Figs. 8-9.
	PlaceFlatFly    = layout.PlaceFlatFly
	PlaceFoldedClos = layout.PlaceFoldedClos
	PlaceHypercube  = layout.PlaceHypercube
	PlaceButterfly  = layout.PlaceButterfly
	// CompareWireDelay runs the §5.2 wire-delay study.
	CompareWireDelay = layout.CompareWireDelay
)

// Closed-form saturation-throughput models, used to validate the
// simulator against channel-load theory.
var (
	// FlatFlyWCMinimal is 1/k (§3.2).
	FlatFlyWCMinimal = analysis.FlatFlyWCMinimal
	// FlatFlyWCNonMinimal is (k-1)/2k.
	FlatFlyWCNonMinimal = analysis.FlatFlyWCNonMinimal
	// FoldedClosURThroughput models the tapered Clos's ~50% cap.
	FoldedClosURThroughput = analysis.FoldedClosURThroughput
	// TorusTornadoThroughput is 1/floor(k/2).
	TorusTornadoThroughput = analysis.TorusTornadoThroughput
	// CreditLimitedChannelRate is min(1, depth/RTT) — the Fig. 12(b)
	// mechanism.
	CreditLimitedChannelRate = analysis.CreditLimitedChannelRate
	// SlimFlyNeighborMinimal is 1/p under the generator-neighbor
	// adversary.
	SlimFlyNeighborMinimal = analysis.SlimFlyNeighborMinimal
	// DragonflyWCMinimal is 1/(a*p); DragonflyWCNonMinimal is h/(2p).
	DragonflyWCMinimal    = analysis.DragonflyWCMinimal
	DragonflyWCNonMinimal = analysis.DragonflyWCNonMinimal
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
