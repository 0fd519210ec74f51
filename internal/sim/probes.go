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
// time series maintained by a hook set (Hooks) that AttachProbes
// installs. Counter fields are owned by the simulation goroutine; read
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

	detach func()
}

// AttachProbes builds a fresh probe registry over the network's channels
// and attaches its hook set. Probes returns the registry attached last;
// DetachProbes detaches it again. A registry attached earlier keeps
// counting alongside.
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
	p.detach = n.AttachHooks(&Hooks{
		Stall: func(_ *Packet, _ topo.RouterID, _, _ int, cause StallCause) {
			if cause == StallCredit {
				p.CreditStalls++
			} else {
				p.VCStalls++
			}
		},
		Arbitrate: func(_ topo.RouterID, _, granted, requested int) {
			p.Grants += int64(granted)
			p.Conflicts += int64(requested - granted)
		},
		EndCycle: func() {
			if n.cycle%p.stride == 0 {
				n.sampleProbes(p)
			}
		},
	})
	n.probes = p
	return p
}

// Probes returns the probe registry attached last, or nil.
func (n *Network) Probes() *Probes { return n.probes }

// DetachProbes detaches the registry Probes returns; other hook sets stay.
func (n *Network) DetachProbes() {
	if n.probes != nil {
		n.probes.detach()
		n.probes = nil
	}
}

// AttachTracer attaches a hook set that records inject, route,
// VC-allocation, crossbar and eject events for every flit into t
// (subject to the tracer's own packet filter). A nil tracer attaches
// nothing.
func (n *Network) AttachTracer(t *telemetry.Tracer) {
	if t == nil {
		return
	}
	record := func(kind telemetry.EventKind, p *Packet, r topo.RouterID, port, vc int, tail bool) {
		t.Record(telemetry.FlitEvent{
			Cycle: n.cycle, Kind: kind, Packet: p.ID,
			Src: int(p.Src), Dst: int(p.Dst),
			Router: int(r), Port: port, VC: vc, Tail: tail,
		})
	}
	n.AttachHooks(&Hooks{
		Inject: func(p *Packet, r topo.RouterID, port int, tail bool) {
			record(telemetry.EvInject, p, r, port, 0, tail)
		},
		Route: func(p *Packet, r topo.RouterID, port, vc int) {
			record(telemetry.EvRoute, p, r, port, vc, false)
		},
		Traverse: func(p, _ *Packet, r topo.RouterID, port, vc, _ int, head, tail bool) {
			if head && n.routers[r].out[port].kind == topo.Network {
				record(telemetry.EvVCAlloc, p, r, port, vc, tail)
			}
			record(telemetry.EvXbar, p, r, port, vc, tail)
		},
		Eject: func(p *Packet, r topo.RouterID, port int, tail bool) {
			record(telemetry.EvEject, p, r, port, -1, tail)
		},
	})
}

// sampleProbes takes one sampling pass into p: input-VC occupancy via the
// per-port occupancy bitmasks (so empty buffers cost nothing) and
// per-channel flit deltas into the windowed time series.
func (n *Network) sampleProbes(p *Probes) {
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
