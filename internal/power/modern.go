package power

import (
	"flatnet/internal/cost"
)

// ModernComparison holds one row of the flattened-butterfly versus
// Slim Fly versus dragonfly sweep — the high-radix successors compared
// under the paper's own cost and power methodology.
type ModernComparison struct {
	N         int
	FlatFly   Breakdown
	SlimFly   Breakdown
	Dragonfly Breakdown
}

// CompareModern evaluates the three high-radix direct topologies at
// size n. All three dedicate SerDes to packaging levels (§5.3 applies
// to direct topologies generally), so the comparison isolates what the
// graphs themselves buy: the dragonfly's local channels stay on cheap
// drivers, while the Slim Fly's diameter-2 fabric pays global drivers
// on every channel but needs the fewest channels per node.
func CompareModern(n int, m Model, p cost.Packaging) (ModernComparison, error) {
	ff, err := cost.FlatFlyBOM(n, p)
	if err != nil {
		return ModernComparison{}, err
	}
	sf, err := cost.SlimFlyBOM(n, p)
	if err != nil {
		return ModernComparison{}, err
	}
	df, err := cost.DragonflyBOM(n, p)
	if err != nil {
		return ModernComparison{}, err
	}
	return ModernComparison{
		N:         n,
		FlatFly:   Price(ff, m, p, true),
		SlimFly:   Price(sf, m, p, true),
		Dragonfly: Price(df, m, p, true),
	}, nil
}
