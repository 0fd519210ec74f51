package cost

import (
	"fmt"
	"math"

	"flatnet/internal/topo"
)

// slimFlyConfig selects the smallest MMS field size q whose Slim Fly at
// the default concentration reaches n terminals within the packaging
// radix: 2q^2 routers of network degree k' = (3q-delta)/2 with
// ceil(k'/2) terminals each, so the router uses k' + ceil(k'/2) ports.
func slimFlyConfig(n, radix int) (q, kPrime, conc int, err error) {
	for q = 5; ; q += 2 {
		if _, _, ok := topo.PrimePower(q); !ok {
			continue
		}
		delta := 1
		if q%4 == 3 {
			delta = -1
		}
		kPrime = (3*q - delta) / 2
		conc = topo.SlimFlyDefaultConc(q)
		if kPrime+conc > radix {
			return 0, 0, 0, fmt.Errorf("cost: no Slim Fly configuration reaches %d nodes within radix %d", n, radix)
		}
		if 2*q*q*conc >= n {
			return q, kPrime, conc, nil
		}
	}
}

// SlimFlyBOM builds the Slim Fly bill of materials for n nodes using the
// smallest MMS graph that scales to n within the packaging radix. The
// MMS graph is a uniform random-like expander with no exploitable
// locality — Cayley and cross-block neighbors are scattered across the
// whole floor — so every inter-router channel is a global cable of
// average length E/3, the same assumption the flattened butterfly's
// high dimensions use (§4.2). That is the cost side of the Slim Fly
// trade: fewer, longer channels per node from the diameter-2 graph.
func SlimFlyBOM(n int, p Packaging) (BOM, error) {
	q, kPrime, conc, err := slimFlyConfig(n, p.Radix)
	if err != nil {
		return BOM{}, err
	}
	b := BOM{
		Topology:        fmt.Sprintf("slim fly (q=%d)", q),
		N:               n,
		RoutersPerNode:  1.0 / float64(conc),
		RouterPortsUsed: kPrime + conc,
	}
	b.Links = append(b.Links, TerminalGroup())
	b.Links = append(b.Links, LinkGroup{
		Label:   "fabric",
		Class:   GlobalCable,
		PerNode: float64(kPrime) / float64(conc),
		Length:  p.GlobalCableLength(n, 1.0/3),
	})
	return b, nil
}

// dragonflyConfig selects the smallest balanced dragonfly (a = 2h,
// p = h) reaching n terminals within the packaging radix: h(2h)(2h^2+1)
// terminals on routers of radix 4h-1.
func dragonflyConfig(n, radix int) (h int, err error) {
	for h = 1; ; h++ {
		if 4*h-1 > radix {
			return 0, fmt.Errorf("cost: no balanced dragonfly reaches %d nodes within radix %d", n, radix)
		}
		if h*2*h*(2*h*h+1) >= n {
			return h, nil
		}
	}
}

// DragonflyBOM builds the balanced-dragonfly bill of materials for n
// nodes: a = 2h routers per group in a complete local graph, h global
// channels per router, p = h terminals. Local channels stay within the
// group's cabinets (backplane when one cabinet holds the group, short
// local cable when a few do, otherwise cables spanning the group's own
// floor region); only the h global channels per router leave the group
// as E/3 cables — the packaging locality the dragonfly was designed
// around, and the cost contrast with the Slim Fly's all-global fabric.
func DragonflyBOM(n int, p Packaging) (BOM, error) {
	h, err := dragonflyConfig(n, p.Radix)
	if err != nil {
		return BOM{}, err
	}
	a, conc := 2*h, h
	b := BOM{
		Topology:        fmt.Sprintf("dragonfly (h=%d)", h),
		N:               n,
		RoutersPerNode:  1.0 / float64(conc),
		RouterPortsUsed: conc + a - 1 + h,
	}
	b.Links = append(b.Links, TerminalGroup())
	local := LinkGroup{
		Label:   "local",
		PerNode: float64(a-1) / float64(conc),
	}
	groupNodes := a * conc
	switch {
	case groupNodes <= p.NodesPerCabinet:
		local.Class = Backplane
	case groupNodes <= 4*p.NodesPerCabinet:
		local.Class = LocalCable
		local.Length = p.LocalCableLength
	default:
		local.Class = GlobalCable
		local.Length = math.Sqrt(float64(groupNodes)/p.Density)/3 + p.CableOverhead
	}
	b.Links = append(b.Links, local)
	b.Links = append(b.Links, LinkGroup{
		Label:   "global",
		Class:   GlobalCable,
		PerNode: float64(h) / float64(conc),
		Length:  p.GlobalCableLength(n, 1.0/3),
	})
	return b, nil
}
