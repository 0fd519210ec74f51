package nocsvc

import (
	"cmp"
	"fmt"

	"flatnet/internal/sim"
	"flatnet/internal/spec"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// Session parameter defaults, applied by normalize.
const (
	defaultBufPerPort = 32
	defaultPacketSize = 1
	defaultFlitBytes  = 8
	defaultWarmup     = 1000
	defaultBurstLen   = 16
)

// normalize fills an OpenParams' defaulted fields in place.
func (p *OpenParams) normalize() {
	if p.BufPerPort == 0 {
		p.BufPerPort = defaultBufPerPort
	}
	if p.PacketSize == 0 {
		p.PacketSize = defaultPacketSize
	}
	if p.FlitBytes == 0 {
		p.FlitBytes = defaultFlitBytes
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	switch {
	case p.Warmup == 0:
		p.Warmup = defaultWarmup
	case p.Warmup < 0:
		p.Warmup = 0
	}
	if p.Pattern == "" {
		p.Pattern = "uniform"
	} else if canon, ok := traffic.Canonical(p.Pattern); ok {
		p.Pattern = canon
	}
	if p.BurstPeak > 0 && p.BurstLen == 0 {
		p.BurstLen = defaultBurstLen
	}
}

// Spec converts the wire parameters to the shared network and workload
// descriptions. The wire speaks the compact (topology, k, n) vocabulary:
// K^N terminals for flatfly, butterfly and foldedclos — the latter in the
// §3.3 equal-bisection convention, 2:1 tapered with K terminals per leaf
// — and N dimensions for hypercube.
func (p OpenParams) Spec() (spec.Net, spec.Workload, error) {
	net, err := spec.Flags{Topo: p.Topology, K: p.K, N: p.N, Dims: p.N, Taper: 2}.Net()
	net.Alg = p.Routing
	return net, spec.Workload{
		Pattern: p.Pattern, Hot: p.Hot, HotFraction: p.HotFraction,
		BurstPeak: p.BurstPeak, BurstLen: p.BurstLen,
	}, err
}

// build materializes a session's channel graph, routing algorithm,
// simulator configuration and background workload source from normalized
// OpenParams. A source carries no identity in a snapshot beyond its name
// and mutable state, so a clone rebuilds an identical one from the same
// params. maxNodes is the server's admission-control cap on topology
// size; 0 means no cap.
func build(p OpenParams, maxNodes int) (g *topo.Graph, alg sim.Algorithm, cfg sim.Config, src traffic.Source, err error) {
	net, wl, err := p.Spec()
	if err != nil {
		return
	}
	// The wire's (k, n) names K^N terminals — 2^N for the hypercube, whose
	// Net takes no K — so an over-cap request is refused before anything
	// that size is built.
	nodes := 1
	for i := 0; i < p.N && nodes <= maxNodes; i++ {
		nodes *= cmp.Or(net.K, 2)
	}
	if maxNodes > 0 && nodes > maxNodes {
		err = fmt.Errorf("topology has at least %d terminals, above the server cap of %d", nodes, maxNodes)
		return
	}
	t, alg, conc, err := net.Build()
	if err != nil {
		return
	}
	g = t.Graph()
	if _, src, err = wl.Build(g.NumNodes, conc, p.Seed); err != nil {
		err = fmt.Errorf("workload: %w", err)
		return
	}
	cfg = sim.Config{Seed: p.Seed, BufPerPort: p.BufPerPort, PacketSize: p.PacketSize}
	return
}

// packetsFor converts a transfer size in bytes into whole packets given
// the session's flit geometry. A zero-byte transfer still occupies one
// packet (the message exists even if its payload is empty).
func packetsFor(bytes, flitBytes, packetSize int) int {
	flits := (bytes + flitBytes - 1) / flitBytes
	if flits < 1 {
		flits = 1
	}
	packets := (flits + packetSize - 1) / packetSize
	if packets < 1 {
		packets = 1
	}
	return packets
}
