// Package nocsvc is the repository's NoC-as-a-service co-simulation
// layer: a newline-delimited JSON request/response protocol (in the
// style uPIMulator drives BookSim2 with) served from live, warmed
// flatnet simulations. An execution-driven host simulator opens a
// session describing a topology, routing algorithm and background load,
// then asks for congestion-aware latency estimates of individual
// transfers (src, dst, bytes → cycles); the service keeps one
// cycle-accurate sim.Network per session warm so per-request cost is
// the transfer's own flight time, not a cold warm-up.
//
// The wire protocol is one JSON object per line in both directions,
// versioned and strictly validated. cmd/nocd serves it over stdio
// (child-process mode) and TCP (shared-daemon mode); package
// nocsvc/client is the Go client.
package nocsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"flatnet/internal/traffic"
)

// ProtocolVersion is the wire protocol version this package speaks.
// Requests carrying any other version are rejected with CodeBadVersion.
const ProtocolVersion = 1

// MaxLineBytes caps one protocol line. Longer lines are answered with a
// CodeLineTooLong error and the connection is closed (the stream can no
// longer be framed reliably).
const MaxLineBytes = 1 << 20

// Protocol limits, enforced by DecodeRequest so no verb can make the
// server allocate or simulate unboundedly on behalf of one line.
const (
	// MaxBatch caps the items of one batch_estimate request.
	MaxBatch = 4096
	// MaxTransferBytes caps one estimated transfer's size.
	MaxTransferBytes = 1 << 30
	// MaxWarmup caps a session's requested warm-up window in cycles.
	MaxWarmup = 1 << 20
)

// Verbs of the protocol.
const (
	VerbOpen     = "open_session"
	VerbEstimate = "estimate"
	VerbBatch    = "batch_estimate"
	VerbClose    = "close_session"
	VerbStats    = "stats"
	// VerbCheckpoint snapshots a session's warmed network into a
	// server-side checkpoint store and returns the checkpoint's id.
	VerbCheckpoint = "checkpoint_session"
	// VerbClone opens a new session restored from a stored checkpoint,
	// skipping the warm-up entirely. The clone is bit-identical to the
	// checkpointed session at the moment of its snapshot.
	VerbClone = "clone_session"
)

// Error codes carried in failure responses.
const (
	// CodeBadRequest marks malformed JSON, missing or out-of-range
	// parameters, or params that do not belong to the request's verb.
	CodeBadRequest = "bad_request"
	// CodeBadVersion marks a request with an unsupported protocol version.
	CodeBadVersion = "bad_version"
	// CodeUnknownVerb marks an unrecognized verb.
	CodeUnknownVerb = "unknown_verb"
	// CodeNoSession marks an operation on a session id that does not exist
	// (never opened, already closed, or evicted).
	CodeNoSession = "no_session"
	// CodeNoCheckpoint marks a clone_session naming a checkpoint id that
	// does not exist (never taken, or evicted from the capped store).
	CodeNoCheckpoint = "no_checkpoint"
	// CodeSessionLimit marks an open_session rejected by admission control:
	// the daemon is at its session cap and no slot freed within its grace.
	CodeSessionLimit = "session_limit"
	// CodeOverloaded marks a request rejected by per-session backpressure:
	// the session's bounded inflight queue is full.
	CodeOverloaded = "overloaded"
	// CodeSaturated marks an estimate whose transfer failed to deliver
	// within the per-estimate cycle budget — the session's background load
	// has saturated the network.
	CodeSaturated = "saturated"
	// CodeLineTooLong marks a request line exceeding MaxLineBytes.
	CodeLineTooLong = "line_too_long"
	// CodeShutdown marks a request caught by server or session shutdown.
	CodeShutdown = "shutdown"
	// CodeInternal marks an unexpected server-side failure.
	CodeInternal = "internal"
)

// Error is the structured failure payload of a response. It satisfies
// the error interface so the client surfaces it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("nocsvc: %s: %s", e.Code, e.Message) }

func errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Request is one protocol request line. Exactly one verb-specific
// payload may be present, matching Verb.
type Request struct {
	Version int    `json:"v"`
	ID      int64  `json:"id"`
	Verb    string `json:"verb"`
	// Session names the target session for estimate, batch_estimate and
	// close_session; optional for stats (includes that session's detail).
	Session string `json:"session,omitempty"`
	// Open carries open_session parameters.
	Open *OpenParams `json:"open,omitempty"`
	// Est carries one estimate's parameters.
	Est *EstimateParams `json:"est,omitempty"`
	// Batch carries batch_estimate items, answered in order.
	Batch []EstimateParams `json:"batch,omitempty"`
	// Checkpoint names the stored checkpoint for clone_session.
	Checkpoint string `json:"checkpoint,omitempty"`
}

// OpenParams describes the simulation a session serves estimates from.
type OpenParams struct {
	// Topology selects the network: "flatfly" (K-ary N-flat),
	// "butterfly" (K-ary N-fly), "foldedclos" (2:1 tapered, K terminals
	// per leaf) or "hypercube" (N-dimensional, K ignored).
	Topology string `json:"topology"`
	K        int    `json:"k,omitempty"`
	N        int    `json:"n"`
	// Routing selects the algorithm. flatfly accepts the paper's five
	// ("min", "val", "ugal", "ugal-s", "clos" and their long forms);
	// other topologies have a single algorithm and accept "" or its name.
	Routing string `json:"routing,omitempty"`
	// BufPerPort is flit buffering per router input port (default 32).
	BufPerPort int `json:"buf_per_port,omitempty"`
	// PacketSize is flits per packet (default 1).
	PacketSize int `json:"packet_size,omitempty"`
	// FlitBytes is the payload bytes one flit carries, used to convert an
	// estimate's bytes into flits (default 8).
	FlitBytes int `json:"flit_bytes,omitempty"`
	// Seed drives every random stream of the session (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Load is the background offered load in flits per node per cycle,
	// injected as Pattern-shaped Bernoulli traffic under every estimate.
	// 0 estimates against an idle network.
	Load float64 `json:"load,omitempty"`
	// Pattern names the background traffic's spatial pattern, validated
	// against the internal/traffic registry: "uniform" (the default),
	// "bitcomp", "transpose", "shuffle", "randperm", "worstcase",
	// "tornado", "hotspot" or "incast" (sweep-style short forms
	// UR/BC/TP/SH/RP/WC/TOR/HS/IC are accepted). Seeded patterns draw
	// from the session's Seed; group patterns use the topology's
	// concentration.
	Pattern string `json:"pattern,omitempty"`
	// BurstPeak, when set, swaps the background arrival process from
	// Bernoulli to the two-state on/off (MMPP) process: nodes alternate
	// silent OFF periods with ON bursts injecting at BurstPeak flits per
	// node per cycle, mixed so the long-run average rate equals Load
	// (which must not exceed BurstPeak). 0 keeps Bernoulli arrivals.
	BurstPeak float64 `json:"burst_peak,omitempty"`
	// BurstLen is the mean ON-burst length in cycles when BurstPeak is
	// set (default 16; must be >= 1).
	BurstLen float64 `json:"burst_len,omitempty"`
	// Hot lists the hot terminal IDs for the "hotspot" pattern (default
	// {0}); "incast" sinks at the first entry.
	Hot []int `json:"hot,omitempty"`
	// HotFraction is the probability a hotspot packet targets the hot
	// set (default 0.1).
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// Warmup is how many cycles to advance the network at Load before the
	// session serves its first estimate (default 1000; 0 uses the
	// default, -1 disables warm-up).
	Warmup int `json:"warmup,omitempty"`
	// Workers is inert: range-checked, then ignored (the cycle core is
	// sequential). It stays so protocol-v1 opens that carry it still
	// decode — the decoder rejects unknown fields.
	Workers int `json:"workers,omitempty"`
}

// EstimateParams is one transfer to estimate: Bytes payload bytes from
// terminal Src to terminal Dst.
type EstimateParams struct {
	Src   int `json:"src"`
	Dst   int `json:"dst"`
	Bytes int `json:"bytes"`
}

// EstimateResult reports one transfer estimate.
type EstimateResult struct {
	// Cycles is the congestion-aware latency from source-queue arrival to
	// the delivery of the transfer's last packet.
	Cycles int64 `json:"cycles"`
	// Hops is the inter-router hop count of the transfer's last packet.
	Hops int `json:"hops"`
	// Packets is how many packets the transfer occupied.
	Packets int `json:"packets"`
	// Saturated reports the transfer failed to drain within the session's
	// per-estimate cycle budget; Cycles then holds the budget spent.
	Saturated bool `json:"saturated,omitempty"`
}

// SessionInfo describes an opened session.
type SessionInfo struct {
	Nodes      int    `json:"nodes"`
	Routers    int    `json:"routers"`
	VCs        int    `json:"vcs"`
	PacketSize int    `json:"packet_size"`
	FlitBytes  int    `json:"flit_bytes"`
	Algorithm  string `json:"algorithm"`
	WarmCycles int64  `json:"warm_cycles"`
}

// Response is one protocol response line. OK reports success; on
// failure Err is set and the verb payloads are absent. Responses echo
// the request's ID (0 when the request was too malformed to carry one)
// and may arrive out of order relative to other in-flight requests.
type Response struct {
	Version int    `json:"v"`
	ID      int64  `json:"id"`
	OK      bool   `json:"ok"`
	Err     *Error `json:"err,omitempty"`
	// Session echoes the opened session's id (open_session,
	// clone_session) or the checkpointed one (checkpoint_session).
	Session string       `json:"session,omitempty"`
	Info    *SessionInfo `json:"info,omitempty"`
	// Checkpoint carries the stored checkpoint's id (checkpoint_session).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Est answers estimate; Batch answers batch_estimate in item order.
	Est   *EstimateResult  `json:"est,omitempty"`
	Batch []EstimateResult `json:"batch,omitempty"`
	// Stats answers the stats verb.
	Stats *Stats `json:"stats,omitempty"`
}

// Stats is the stats verb's payload: server-wide counters plus, when the
// request named a session, that session's detail.
type Stats struct {
	Server  ServerStats   `json:"server"`
	Session *SessionStats `json:"session,omitempty"`
}

// DecodeRequest parses and strictly validates one request line. On
// failure the returned request still carries whatever ID was parseable,
// so the server can correlate the error response; the returned *Error
// is nil exactly when the request is valid. DecodeRequest never panics
// on any input.
func DecodeRequest(line []byte) (Request, *Error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// Recover the ID on a best-effort basis for error correlation:
		// a lenient pass that tolerates unknown fields and bad subfields.
		var probe struct {
			ID int64 `json:"id"`
		}
		_ = json.Unmarshal(line, &probe)
		req.ID = probe.ID
		return req, errf(CodeBadRequest, "malformed request: %v", err)
	}
	if dec.More() {
		return req, errf(CodeBadRequest, "trailing data after request object")
	}
	if req.Version != ProtocolVersion {
		return req, errf(CodeBadVersion, "protocol version %d, want %d", req.Version, ProtocolVersion)
	}
	if req.ID < 0 {
		return req, errf(CodeBadRequest, "id must be >= 0, got %d", req.ID)
	}
	switch req.Verb {
	case VerbOpen:
		if req.Open == nil {
			return req, errf(CodeBadRequest, "open_session requires open params")
		}
		if req.Session != "" || req.Est != nil || req.Batch != nil || req.Checkpoint != "" {
			return req, errf(CodeBadRequest, "open_session carries foreign params")
		}
		if perr := req.Open.validate(); perr != nil {
			return req, perr
		}
	case VerbEstimate:
		if req.Session == "" {
			return req, errf(CodeBadRequest, "estimate requires a session")
		}
		if req.Est == nil {
			return req, errf(CodeBadRequest, "estimate requires est params")
		}
		if req.Open != nil || req.Batch != nil || req.Checkpoint != "" {
			return req, errf(CodeBadRequest, "estimate carries foreign params")
		}
		if perr := req.Est.validate(); perr != nil {
			return req, perr
		}
	case VerbBatch:
		if req.Session == "" {
			return req, errf(CodeBadRequest, "batch_estimate requires a session")
		}
		if len(req.Batch) == 0 {
			return req, errf(CodeBadRequest, "batch_estimate requires at least one item")
		}
		if len(req.Batch) > MaxBatch {
			return req, errf(CodeBadRequest, "batch of %d exceeds the limit of %d", len(req.Batch), MaxBatch)
		}
		if req.Open != nil || req.Est != nil || req.Checkpoint != "" {
			return req, errf(CodeBadRequest, "batch_estimate carries foreign params")
		}
		for i := range req.Batch {
			if perr := req.Batch[i].validate(); perr != nil {
				return req, errf(CodeBadRequest, "batch item %d: %s", i, perr.Message)
			}
		}
	case VerbClose:
		if req.Session == "" {
			return req, errf(CodeBadRequest, "close_session requires a session")
		}
		if req.Open != nil || req.Est != nil || req.Batch != nil || req.Checkpoint != "" {
			return req, errf(CodeBadRequest, "close_session carries foreign params")
		}
	case VerbStats:
		if req.Open != nil || req.Est != nil || req.Batch != nil || req.Checkpoint != "" {
			return req, errf(CodeBadRequest, "stats carries foreign params")
		}
	case VerbCheckpoint:
		if req.Session == "" {
			return req, errf(CodeBadRequest, "checkpoint_session requires a session")
		}
		if req.Open != nil || req.Est != nil || req.Batch != nil || req.Checkpoint != "" {
			return req, errf(CodeBadRequest, "checkpoint_session carries foreign params")
		}
	case VerbClone:
		if req.Checkpoint == "" {
			return req, errf(CodeBadRequest, "clone_session requires a checkpoint")
		}
		if req.Session != "" || req.Open != nil || req.Est != nil || req.Batch != nil {
			return req, errf(CodeBadRequest, "clone_session carries foreign params")
		}
	case "":
		return req, errf(CodeBadRequest, "missing verb")
	default:
		return req, errf(CodeUnknownVerb, "unknown verb %q", req.Verb)
	}
	return req, nil
}

// validate checks an OpenParams' protocol-level bounds. The topology
// constructors apply their own mathematical constraints on top.
func (p *OpenParams) validate() *Error {
	switch p.Topology {
	case "flatfly", "butterfly", "foldedclos", "hypercube":
	case "":
		return errf(CodeBadRequest, "open: missing topology")
	default:
		return errf(CodeBadRequest, "open: unknown topology %q", p.Topology)
	}
	if p.K < 0 || p.K > 1024 {
		return errf(CodeBadRequest, "open: k %d out of [0,1024]", p.K)
	}
	if p.N < 1 || p.N > 20 {
		return errf(CodeBadRequest, "open: n %d out of [1,20]", p.N)
	}
	if p.BufPerPort < 0 || p.BufPerPort > 4096 {
		return errf(CodeBadRequest, "open: buf_per_port %d out of [0,4096]", p.BufPerPort)
	}
	if p.PacketSize < 0 || p.PacketSize > 64 {
		return errf(CodeBadRequest, "open: packet_size %d out of [0,64]", p.PacketSize)
	}
	if p.FlitBytes < 0 || p.FlitBytes > 1<<16 {
		return errf(CodeBadRequest, "open: flit_bytes %d out of [0,65536]", p.FlitBytes)
	}
	if p.Load < 0 || p.Load >= 1 {
		return errf(CodeBadRequest, "open: load %v out of [0,1)", p.Load)
	}
	if p.Warmup < -1 || p.Warmup > MaxWarmup {
		return errf(CodeBadRequest, "open: warmup %d out of [-1,%d]", p.Warmup, MaxWarmup)
	}
	if p.Workers < 0 || p.Workers > 256 {
		return errf(CodeBadRequest, "open: workers %d out of [0,256]", p.Workers)
	}
	if p.Pattern != "" && !traffic.Known(p.Pattern) {
		return errf(CodeBadRequest, "open: unknown pattern %q (have %s)",
			p.Pattern, strings.Join(traffic.Names(), ", "))
	}
	if p.BurstPeak < 0 || p.BurstPeak > 1 {
		return errf(CodeBadRequest, "open: burst_peak %v out of [0,1]", p.BurstPeak)
	}
	if p.BurstLen != 0 && p.BurstLen < 1 {
		return errf(CodeBadRequest, "open: burst_len %v must be >= 1", p.BurstLen)
	}
	if p.BurstLen != 0 && p.BurstPeak == 0 {
		return errf(CodeBadRequest, "open: burst_len set without burst_peak")
	}
	if p.BurstPeak > 0 && p.Load > p.BurstPeak {
		return errf(CodeBadRequest, "open: load %v above burst_peak %v", p.Load, p.BurstPeak)
	}
	for _, h := range p.Hot {
		if h < 0 {
			return errf(CodeBadRequest, "open: hot node %d must be >= 0", h)
		}
	}
	if p.HotFraction < 0 || p.HotFraction > 1 {
		return errf(CodeBadRequest, "open: hot_fraction %v out of [0,1]", p.HotFraction)
	}
	return nil
}

// validate checks one estimate's protocol-level bounds; session-level
// range checks (src/dst within the topology) happen at execution.
func (e *EstimateParams) validate() *Error {
	if e.Src < 0 {
		return errf(CodeBadRequest, "est: src %d must be >= 0", e.Src)
	}
	if e.Dst < 0 {
		return errf(CodeBadRequest, "est: dst %d must be >= 0", e.Dst)
	}
	if e.Bytes < 0 || e.Bytes > MaxTransferBytes {
		return errf(CodeBadRequest, "est: bytes %d out of [0,%d]", e.Bytes, MaxTransferBytes)
	}
	return nil
}

// EncodeResponse renders one response line (without the trailing
// newline, which the writer frames).
func EncodeResponse(r *Response) ([]byte, error) {
	r.Version = ProtocolVersion
	return json.Marshal(r)
}

// DecodeResponse parses one response line; the client side of
// DecodeRequest. Responses are validated leniently (unknown fields are
// ignored) so older clients tolerate additive server evolution.
func DecodeResponse(line []byte) (Response, error) {
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, fmt.Errorf("nocsvc: malformed response: %w", err)
	}
	if resp.Version != ProtocolVersion {
		return resp, fmt.Errorf("nocsvc: response version %d, want %d", resp.Version, ProtocolVersion)
	}
	if !resp.OK && resp.Err == nil {
		return resp, fmt.Errorf("nocsvc: failure response without error payload")
	}
	return resp, nil
}
