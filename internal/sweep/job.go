// Package sweep is the experiment-orchestration engine: it turns the
// repository's ad-hoc load loops into batches of independent, hashable
// simulation jobs executed by a worker pool with a durable on-disk
// result cache.
//
// A Job is a pure-value description of one simulation — network
// constructor, routing algorithm, traffic pattern, load point, window
// lengths and seed. Every randomness in a run derives from the job's own
// Seed (each job owns a fresh network and RNG), so a job's result is a
// function of the job alone: results are bit-identical whether jobs run
// sequentially, in parallel, or on different machines, and a stable
// content hash of the job fields can key a result cache across runs.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"flatnet/internal/analysis"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// Execution modes.
const (
	// ModeLoad measures one open-loop load point (§3.2 methodology).
	ModeLoad = "load"
	// ModeSaturation measures accepted rate at full offered load.
	ModeSaturation = "saturation"
	// ModeBatch runs the Fig. 5 batch experiment.
	ModeBatch = "batch"
	// ModeAnalytic skips cycle simulation entirely: the job's topology is
	// evaluated graph-analytically (internal/analysis) and the zero-load
	// latency model fills the load-point fields, so extreme-scale
	// design-space sweeps run in milliseconds.
	ModeAnalytic = "analytic"
	// ModeCollective runs a collective schedule (Job.Collective:
	// "alltoall" or "allreduce") to end-to-end completion, with the
	// job's pattern as optional background traffic at Load.
	ModeCollective = "collective"
)

// Job describes one independent simulation. The zero values of optional
// fields select the same defaults the underlying simulator uses, and
// Normalize makes those defaults explicit so that equivalent jobs hash
// identically.
type Job struct {
	// Net selects the network family: any internal/spec family name
	// ("flatfly", "butterfly", "foldedclos", "hypercube", "slimfly",
	// "dragonfly", ...). spec.Net documents which of the parameters below
	// each family reads.
	Net string `json:"net"`
	// K and N parameterize the constructor (ary and dimension count for
	// flatfly/butterfly; N is the dimension count for hypercube).
	K int `json:"k,omitempty"`
	N int `json:"n,omitempty"`
	// Uplinks, Leaves and Middles are the extra folded-Clos parameters
	// (K is the terminals-per-leaf count).
	Uplinks int `json:"uplinks,omitempty"`
	Leaves  int `json:"leaves,omitempty"`
	Middles int `json:"middles,omitempty"`
	// Q is the Slim Fly field size (an odd prime power).
	Q int `json:"q,omitempty"`
	// A and H are the dragonfly routers-per-group and global channels
	// per router (A 0 means the balanced 2H).
	A int `json:"a,omitempty"`
	H int `json:"h,omitempty"`
	// P is the terminals-per-router concentration for slimfly and
	// dragonfly (0 means each family's balanced default).
	P int `json:"p,omitempty"`
	// ChannelLatency is the inter-router channel latency in cycles
	// (0 means the topology default of 1). Flattened butterfly only.
	ChannelLatency int `json:"channel_latency,omitempty"`
	// Multiplicity is the number of parallel channels per link
	// (0 means 1). Flattened butterfly only.
	Multiplicity int `json:"multiplicity,omitempty"`

	// Alg names the routing algorithm, in the family's vocabulary (e.g.
	// "MIN AD", "VAL", "UGAL", "UGAL-S", "CLOS AD" for flatfly); "" is the
	// family's default.
	Alg string `json:"alg"`
	// Pattern names the traffic pattern: "UR", "WC", "BC", "TP", "SH",
	// "TOR", "RP", "HS" or "IC" (the internal/traffic registry's long
	// names are canonicalized to these short forms).
	Pattern string `json:"pattern"`
	// Conc is the group concentration for the WC and TOR patterns
	// (0 means K).
	Conc int `json:"conc,omitempty"`
	// Hot lists the hot terminals for the HS pattern (empty means {0});
	// IC sinks at the first entry. HotFraction is the excess traffic
	// fraction directed at the hot set (0 means 0.1).
	Hot         []int   `json:"hot,omitempty"`
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// BurstPeak, when set, swaps the arrival process from Bernoulli to
	// the two-state on/off (MMPP) process bursting at BurstPeak flits
	// per node per cycle; BurstLen is the mean burst length in cycles
	// (0 means 16). Load must not exceed BurstPeak.
	BurstPeak float64 `json:"burst_peak,omitempty"`
	BurstLen  float64 `json:"burst_len,omitempty"`

	// Mode selects the measurement: ModeLoad (default), ModeSaturation,
	// ModeBatch, ModeAnalytic or ModeCollective.
	Mode string `json:"mode"`
	// Load is the offered load for ModeLoad (ModeSaturation always
	// offers 1.0).
	Load float64 `json:"load,omitempty"`
	// Warmup, Measure and MaxCycles parameterize the measurement window
	// as in sim.RunConfig. MaxCycles 0 keeps the simulator default; for
	// ModeBatch it bounds the batch drain (0 = simulator default).
	Warmup    int `json:"warmup,omitempty"`
	Measure   int `json:"measure,omitempty"`
	MaxCycles int `json:"max_cycles,omitempty"`
	// BatchSize is the per-node packet count for ModeBatch.
	BatchSize int `json:"batch_size,omitempty"`
	// Collective selects the ModeCollective schedule: "alltoall" or
	// "allreduce". Chunk is the payload per phase transfer in packets
	// (0 means 1).
	Collective string `json:"collective,omitempty"`
	Chunk      int    `json:"chunk,omitempty"`

	// Seed drives every random stream of the job's simulation.
	Seed uint64 `json:"seed"`
	// BufPerPort is the flit buffering per input port (0 means 32, the
	// paper's §3.2 configuration).
	BufPerPort int `json:"buf_per_port,omitempty"`
	// PacketSize is flits per packet (0 means 1).
	PacketSize int `json:"packet_size,omitempty"`
	// Speedup, AgeArbiter and RouterDelay map to sim.Config.
	Speedup     int  `json:"speedup,omitempty"`
	AgeArbiter  bool `json:"age_arbiter,omitempty"`
	RouterDelay int  `json:"router_delay,omitempty"`

	// Workers is inert — unhashed, unencoded, unread: the cycle core is
	// sequential (DESIGN.md §13). It stays because flatbench
	// (bench/sweepwl.go) sets it.
	Workers int `json:"-"`
}

// Normalize returns the job with every defaulted field made explicit and
// pattern aliases canonicalized, so equivalent jobs compare and hash
// equal. It does not validate; invalid jobs fail at build time.
func (j Job) Normalize() Job {
	if j.Mode == "" {
		j.Mode = ModeLoad
	}
	if j.BufPerPort == 0 {
		j.BufPerPort = 32
	}
	if j.PacketSize == 0 {
		j.PacketSize = 1
	}
	if j.Multiplicity == 0 {
		j.Multiplicity = 1
	}
	if j.ChannelLatency == 0 {
		j.ChannelLatency = 1
	}
	switch j.Net {
	case "slimfly":
		if j.P == 0 {
			j.P = topo.SlimFlyDefaultConc(j.Q)
		}
	case "dragonfly":
		if j.A == 0 {
			j.A = 2 * j.H
		}
		if j.P == 0 {
			j.P = j.H
		}
	}
	if j.Conc == 0 {
		switch j.Net {
		case "slimfly":
			j.Conc = j.P
		case "dragonfly":
			j.Conc = j.A * j.P // one group of terminals
		default:
			j.Conc = j.K
		}
	}
	if short, ok := shortPattern[j.Pattern]; ok {
		j.Pattern = short
	}
	if j.BurstPeak > 0 && j.BurstLen == 0 {
		j.BurstLen = 16
	}
	if j.Mode == ModeCollective {
		if j.Pattern == "" {
			j.Pattern = "UR"
		}
		if j.Chunk == 0 {
			j.Chunk = 1
		}
	}
	return j
}

// shortPattern maps each internal/traffic registry name to its alias —
// the short form the canonical encoding, and so every cached hash, uses.
var shortPattern = func() map[string]string {
	m := make(map[string]string)
	for short, name := range traffic.Aliases() {
		m[name] = short
	}
	return m
}()

// hashVersion is bumped whenever the encoding or the meaning
// of any Job field changes, invalidating every cached result. v2: load
// results gained latency percentile fields (p50/p95/max), so v1-cached
// entries would replay with those fields zeroed.
const hashVersion = "sweep/v2"

// encode appends the normalized job's fixed-order field string to b. It
// is the one encoding behind both keys: Hash's (warm false), in which
// every field but Workers participates, and WarmKey's (warm true), which
// marks itself "|warm" and leaves out the measurement-only fields (Mode,
// Measure, MaxCycles, BatchSize, Collective, Chunk). The Slim
// Fly/dragonfly and workload-engine fields are appended only when set, so
// the encodings (and cached hashes) of jobs that predate them are
// unchanged.
func (j Job) encode(b []byte, warm bool) []byte {
	n := j.Normalize()
	e := encoder(append(b, hashVersion...))
	if warm {
		e = append(e, "|warm"...)
	}
	e = e.str("net", n.Net).int("k", n.K).int("n", n.N).int("up", n.Uplinks).
		int("lv", n.Leaves).int("mid", n.Middles).int("cl", n.ChannelLatency).
		int("mul", n.Multiplicity).str("alg", n.Alg).str("pat", n.Pattern).int("conc", n.Conc)
	if !warm {
		e = e.str("mode", n.Mode)
	}
	e = e.float("load", n.Load).int("warm", n.Warmup)
	if !warm {
		e = e.int("meas", n.Measure).int("max", n.MaxCycles).int("batch", n.BatchSize)
	}
	e = e.uint("seed", n.Seed).int("buf", n.BufPerPort).int("pkt", n.PacketSize).
		int("spd", n.Speedup).bool("age", n.AgeArbiter).int("rd", n.RouterDelay)
	if n.Q != 0 || n.A != 0 || n.H != 0 || n.P != 0 {
		e = e.int("q", n.Q).int("a", n.A).int("h", n.H).int("p", n.P)
	}
	if n.BurstPeak != 0 || n.BurstLen != 0 {
		e = e.float("bp", n.BurstPeak).float("bl", n.BurstLen)
	}
	if len(n.Hot) != 0 || n.HotFraction != 0 {
		e = e.key("hot")
		for i, h := range n.Hot {
			if i > 0 {
				e = append(e, ',')
			}
			e = strconv.AppendInt(e, int64(h), 10)
		}
		e = e.float("hf", n.HotFraction)
	}
	if !warm && (n.Collective != "" || n.Chunk != 0) {
		e = e.str("coll", n.Collective).int("chunk", n.Chunk)
	}
	return e
}

// encoder appends "|key=value" fields, each value exactly as fmt's %s,
// %d, %t and %.17g print it: every cached hash and stored warm snapshot
// is keyed by those bytes.
type encoder []byte

func (e encoder) key(k string) encoder            { return append(append(append(e, '|'), k...), '=') }
func (e encoder) str(k, v string) encoder         { return append(e.key(k), v...) }
func (e encoder) int(k string, v int) encoder     { return strconv.AppendInt(e.key(k), int64(v), 10) }
func (e encoder) uint(k string, v uint64) encoder { return strconv.AppendUint(e.key(k), v, 10) }
func (e encoder) bool(k string, v bool) encoder   { return strconv.AppendBool(e.key(k), v) }
func (e encoder) float(k string, v float64) encoder {
	return strconv.AppendFloat(e.key(k), v, 'g', 17, 64)
}

// digest is the hex SHA-256 of the job's encoding.
func (j Job) digest(warm bool) string {
	var buf [512]byte
	sum := sha256.Sum256(j.encode(buf[:0], warm))
	return hex.EncodeToString(sum[:])
}

// Hash returns the job's stable content hash. Equal hashes mean equal
// (normalized) jobs.
func (j Job) Hash() string { return j.digest(false) }

// WarmKey returns the job's warm-state content hash: the hash of every
// field that shapes the network's state at the end of warm-up. Two
// ModeLoad jobs with equal WarmKeys traverse identical warm-up
// trajectories, so a snapshot taken when one opens its measurement
// window is a faithful starting point for the other — that is the
// invariant the warm store trades on.
func (j Job) WarmKey() string { return j.digest(true) }

// Result is the outcome of one job. Point is filled for ModeLoad and
// ModeSaturation, Batch for ModeBatch. Results round-trip through the
// JSON-lines cache, so every persistent field is exported and tagged.
type Result struct {
	Job  Job    `json:"job"`
	Hash string `json:"hash"`
	// Point holds the load-point sample; for ModeSaturation only
	// AcceptedRate is meaningful.
	Point sim.LoadPointResult `json:"point,omitempty"`
	// Batch holds the ModeBatch outcome.
	Batch sim.BatchResult `json:"batch,omitempty"`
	// Analytic holds the graph-analytic metrics for ModeAnalytic (nil
	// for simulated modes, so pre-existing pinned results are
	// byte-identical).
	Analytic *analysis.Metrics `json:"analytic,omitempty"`
	// Collective holds the ModeCollective outcome (nil for other modes,
	// so pre-existing pinned results are byte-identical).
	Collective *sim.CollectiveResult `json:"collective,omitempty"`
	// ElapsedSeconds is the wall-clock cost of the original simulation
	// (preserved verbatim for cache hits).
	ElapsedSeconds float64 `json:"elapsed_s"`

	// Cached reports the result was served from the cache, Skipped that
	// the engine's saturation fast-path elided the simulation. Neither
	// is persisted.
	Cached  bool `json:"-"`
	Skipped bool `json:"-"`
	// WarmStart reports the simulation resumed from a warm-state
	// snapshot (skipping the warm-up phase entirely); WarmSaved that it
	// ran cold and deposited one for future runs. Warm reuse is
	// bit-identical to a cold run, so neither flag is persisted or
	// hashed.
	WarmStart bool `json:"-"`
	WarmSaved bool `json:"-"`
}
