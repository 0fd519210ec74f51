package sim

import (
	"math/bits"
	"sort"

	"flatnet/internal/stats"
	"flatnet/internal/telemetry"
	"flatnet/internal/topo"
)

// ProbeConfig parameterizes AttachProbes. Zero values select defaults.
type ProbeConfig struct {
	// Stride is the sampling period in cycles for the occupancy and
	// channel-load probes (<= 0 selects 64). Allocator and stall
	// counters are exact, not sampled.
	Stride int
	// ChannelWindow is the bucket width in cycles of the per-channel
	// load time series (<= 0 selects 4x the stride).
	ChannelWindow int
	// ChannelDepth is how many windows each channel retains
	// (<= 0 selects 64).
	ChannelDepth int
}

// probeChannel is the identity of one instrumented output channel.
type probeChannel struct {
	router topo.RouterID
	port   int
	kind   topo.PortKind
}

// Probes is the router-pipeline probe registry: counters and windowed
// time series maintained by the simulation loop when attached via
// AttachProbes, at zero cost when not (every pipeline hook is a nil
// check). Counter fields are owned by the simulation goroutine; read
// them after the run or from an Observe hook.
type Probes struct {
	stride int64

	// Samples counts occupancy sampling points (every stride cycles).
	Samples int64
	// OccFlits accumulates, over samples, the flits buffered in input
	// VCs; OccFlits/Samples is the mean network-wide buffer occupancy.
	OccFlits int64
	// OccVCs accumulates, over samples, the number of non-empty VCs.
	OccVCs int64
	// MaxVCOcc is the largest single-VC occupancy ever sampled.
	MaxVCOcc int
	// CreditStalls counts switch-allocation bids suppressed because the
	// downstream VC had no credits — cycles a routed head flit sat
	// blocked on buffer space.
	CreditStalls int64
	// VCStalls counts bids suppressed because the downstream VC was
	// owned by another in-flight packet (wormhole blocking).
	VCStalls int64
	// Grants counts crossbar grants issued by the switch allocator.
	Grants int64
	// Conflicts counts requests that went ungranted in their cycle —
	// losers of output contention, speedup limits or credit races.
	Conflicts int64

	channels  []probeChannel
	series    []*stats.TimeSeries
	lastFlits []int64
}

// AttachProbes builds a probe registry over the network's channels and
// installs it into the pipeline. Attaching (or re-attaching) resets all
// probe state; DetachProbes removes the instrumentation again.
func (n *Network) AttachProbes(cfg ProbeConfig) *Probes {
	stride := cfg.Stride
	if stride <= 0 {
		stride = 64
	}
	window := int64(cfg.ChannelWindow)
	if window <= 0 {
		window = int64(4 * stride)
	}
	depth := cfg.ChannelDepth
	if depth <= 0 {
		depth = 64
	}
	p := &Probes{stride: int64(stride)}
	for r := range n.routers {
		for q := range n.routers[r].out {
			op := &n.routers[r].out[q]
			if op.kind == topo.Unused {
				continue
			}
			p.channels = append(p.channels, probeChannel{router: topo.RouterID(r), port: q, kind: op.kind})
			p.series = append(p.series, stats.NewTimeSeries(window, depth))
			p.lastFlits = append(p.lastFlits, op.flitsSent)
		}
	}
	n.probes = p
	return p
}

// Probes returns the attached probe registry, or nil.
func (n *Network) Probes() *Probes { return n.probes }

// DetachProbes removes the probe instrumentation from the pipeline.
func (n *Network) DetachProbes() { n.probes = nil }

// AttachTracer installs a flit event tracer into the pipeline; nil
// detaches. The tracer receives inject, route, VC-allocation, crossbar
// and eject events for every flit (subject to the tracer's own packet
// filter).
func (n *Network) AttachTracer(t *telemetry.Tracer) { n.tracer = t }

// sampleProbes takes one sampling pass: input-VC occupancy via the
// per-port occupancy bitmasks (so empty buffers cost nothing) and
// per-channel flit deltas into the windowed time series.
func (n *Network) sampleProbes() {
	p := n.probes
	p.Samples++
	for r := range n.routers {
		rt := &n.routers[r]
		for w, word := range rt.occ {
			for ; word != 0; word &= word - 1 {
				c := int(rt.vq[w<<6+bits.TrailingZeros64(word)].count)
				p.OccFlits += int64(c)
				p.OccVCs++
				if c > p.MaxVCOcc {
					p.MaxVCOcc = c
				}
			}
		}
	}
	i := 0
	for r := range n.routers {
		rt := &n.routers[r]
		for q := range rt.out {
			op := &rt.out[q]
			if op.kind == topo.Unused {
				continue
			}
			d := op.flitsSent - p.lastFlits[i]
			if d < 0 {
				// The channel counters were reset (ResetChannelStats)
				// since the last sample: count the flits observed since
				// the reset.
				d = op.flitsSent
			}
			if d != 0 {
				p.series[i].Record(n.cycle, d)
				p.lastFlits[i] = op.flitsSent
			}
			i++
		}
	}
}

// Stride returns the sampling period in cycles.
func (p *Probes) Stride() int64 { return p.stride }

// MeanBufferedFlits returns the mean number of flits buffered across the
// whole network per sample point.
func (p *Probes) MeanBufferedFlits() float64 {
	if p.Samples == 0 {
		return 0
	}
	return float64(p.OccFlits) / float64(p.Samples)
}

// MeanVCOccupancy returns the mean occupancy of non-empty VCs, in flits.
func (p *Probes) MeanVCOccupancy() float64 {
	if p.OccVCs == 0 {
		return 0
	}
	return float64(p.OccFlits) / float64(p.OccVCs)
}

// ProbeChannel is one instrumented channel's windowed load view.
type ProbeChannel struct {
	Router topo.RouterID
	Port   int
	Kind   topo.PortKind
	// Flits is the total flits observed by the probe on this channel.
	Flits int64
	// Rate is the recent flit rate (flits/cycle) over the retained
	// window of the channel's time series.
	Rate float64
	// Series is the live windowed time series (do not mutate).
	Series *stats.TimeSeries
}

// Channels returns every instrumented channel's load view, in
// (router, port) order.
func (p *Probes) Channels() []ProbeChannel {
	out := make([]ProbeChannel, len(p.channels))
	for i, c := range p.channels {
		out[i] = ProbeChannel{
			Router: c.router, Port: c.port, Kind: c.kind,
			Flits: p.series[i].Total(), Rate: p.series[i].Rate(),
			Series: p.series[i],
		}
	}
	return out
}

// TopChannels returns the k busiest network channels by probed flit
// count, descending — the live-telemetry analogue of
// Network.TopChannels, but computed from the windowed series so it
// works mid-run without walking router state.
func (p *Probes) TopChannels(k int) []ProbeChannel {
	all := p.Channels()
	filtered := all[:0]
	for _, c := range all {
		if c.Kind == topo.Network {
			filtered = append(filtered, c)
		}
	}
	sort.Slice(filtered, func(i, j int) bool { return filtered[i].Flits > filtered[j].Flits })
	if k > len(filtered) {
		k = len(filtered)
	}
	return filtered[:k]
}

// Snapshot returns the scalar probe counters keyed by name, shaped for a
// telemetry registry gauge. It omits the per-channel series (use
// Channels/TopChannels for those).
func (p *Probes) Snapshot() map[string]any {
	return map[string]any{
		"samples":            p.Samples,
		"stride":             p.stride,
		"occ_flits":          p.OccFlits,
		"occ_vcs":            p.OccVCs,
		"max_vc_occ":         p.MaxVCOcc,
		"mean_buffered":      p.MeanBufferedFlits(),
		"credit_stalls":      p.CreditStalls,
		"vc_stalls":          p.VCStalls,
		"grants":             p.Grants,
		"conflicts":          p.Conflicts,
		"mean_vc_occupancy":  p.MeanVCOccupancy(),
		"channels_monitored": len(p.channels),
	}
}
