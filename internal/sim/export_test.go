package sim

import (
	"testing"

	"flatnet/internal/traffic"
)

// SetStepAll switches a network between the active-worklist scheduler
// (false, the default) and the debug full-scan scheduler that visits
// every router and source each cycle (true). The two must be
// observationally identical; worklist_test.go holds them to it.
func SetStepAll(n *Network, v bool) { n.stepAll = v }

// NumShards reports how many shards the network's scheduler runs across:
// 1 until (and unless) the first Step partitions it. parallel_test.go
// uses it to prove a partition actually happened (or was correctly
// declined).
func NumShards(n *Network) int { return len(n.sh) }

// MustInstall installs pattern p under the Bernoulli arrival process, the
// paper's open-loop injection, failing the test if SetSource refuses.
func MustInstall(t testing.TB, n *Network, p traffic.Pattern) {
	t.Helper()
	if err := n.SetSource(traffic.NewBernoulli(p)); err != nil {
		t.Fatal(err)
	}
}

// MustGenerate performs one cycle's arrivals at load, failing the test
// if Generate errors.
func MustGenerate(t testing.TB, n *Network, load float64) {
	t.Helper()
	if err := n.Generate(load); err != nil {
		t.Fatal(err)
	}
}
