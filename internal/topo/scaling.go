package topo

import (
	"fmt"
	"math"
)

// Scalability implements the size-vs-radix relationships of §2.1 (Fig. 2)
// and the configuration-selection rules of §5.1 (Table 4, §5.1.2).

// NetworkSize returns the number of nodes N reachable by a flattened
// butterfly with switch radix kPrime and nPrime dimensions, following the
// construction k' = n(k-1)+1 with n = n'+1: N = k^n with
// k = (k'-1)/n + 1. The result is a real number because k need not be an
// integer for the scaling curve of Fig. 2.
func NetworkSize(kPrime float64, nPrime int) float64 {
	n := float64(nPrime + 1)
	k := (kPrime-1)/n + 1
	if k < 1 {
		return 0
	}
	return math.Pow(k, n)
}

// FlatFlyConfig describes one (k, n) flattened-butterfly configuration and its
// derived parameters, as tabulated in Table 4 of the paper.
type FlatFlyConfig struct {
	K      int // ary
	N      int // stages of the underlying butterfly
	KPrime int // switch radix k' = n(k-1)+1
	NPrime int // dimensions n' = n-1
	Nodes  int // k^n
}

// ConfigsForN enumerates every (k, n) with k >= 2, n >= 2 and k^n == nodes,
// ordered by increasing n. For nodes = 4096 this reproduces Table 4.
func ConfigsForN(nodes int) []FlatFlyConfig {
	var out []FlatFlyConfig
	for n := 2; ; n++ {
		k := integerRoot(nodes, n)
		if k < 2 {
			break
		}
		if pow(k, n) == nodes {
			out = append(out, FlatFlyConfig{K: k, N: n, KPrime: n*(k-1) + 1, NPrime: n - 1, Nodes: nodes})
		}
	}
	return out
}

// integerRoot returns the largest k with k^n <= v.
func integerRoot(v, n int) int {
	if v < 1 {
		return 0
	}
	k := int(math.Round(math.Pow(float64(v), 1/float64(n))))
	for pow(k, n) > v {
		k--
	}
	for pow(k+1, n) <= v {
		k++
	}
	return k
}

func pow(k, n int) int {
	p := 1
	for i := 0; i < n; i++ {
		if k != 0 && p > math.MaxInt/k {
			return math.MaxInt
		}
		p *= k
	}
	return p
}

// FixedRadixConfig selects a flattened-butterfly configuration for routers
// of radix k that must scale to at least nodes terminals, per §5.1.2: the
// smallest n' with floor(k/(n'+1))^(n'+1) >= nodes. It returns the chosen
// dimensionality, the effective radix k' actually used, and the maximum
// node count of that configuration.
func FixedRadixConfig(radix, nodes int) (nPrime, kPrime, maxNodes int, err error) {
	if radix < 3 {
		return 0, 0, 0, fmt.Errorf("topo: radix %d too small for any flattened butterfly", radix)
	}
	for np := 1; np+1 <= radix; np++ {
		k := radix / (np + 1) // floor(k/(n'+1)) terminals per router and per dimension
		if k < 2 {
			break
		}
		max := pow(k, np+1)
		if max >= nodes {
			return np, (k-1)*(np+1) + 1, max, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("topo: radix-%d routers cannot scale to %d nodes", radix, nodes)
}

// MaxNodesForRadix returns floor(k/(n'+1))^(n'+1): the largest network a
// radix-k router supports at dimensionality n' (§5.1.2).
func MaxNodesForRadix(radix, nPrime int) int {
	k := radix / (nPrime + 1)
	if k < 2 {
		return 0
	}
	return pow(k, nPrime+1)
}
