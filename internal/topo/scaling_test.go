package topo

import (
	"math"
	"testing"
)

func TestNetworkSizeFig2(t *testing.T) {
	// §2.1: "with k' = 61, a network with just three dimensions scales to
	// 64K nodes"; and k'=63, n'=1 gives 1K.
	if got := NetworkSize(61, 3); math.Abs(got-65536) > 1 {
		t.Errorf("NetworkSize(61,3) = %v, want 65536", got)
	}
	if got := NetworkSize(63, 1); math.Abs(got-1024) > 1 {
		t.Errorf("NetworkSize(63,1) = %v, want 1024", got)
	}
	// Low radix scales poorly: k'=15, n'=1 -> k=8 -> 64 nodes.
	if got := NetworkSize(15, 1); math.Abs(got-64) > 1 {
		t.Errorf("NetworkSize(15,1) = %v, want 64", got)
	}
	// Monotone in both arguments.
	if NetworkSize(32, 2) >= NetworkSize(64, 2) {
		t.Error("NetworkSize not increasing in k'")
	}
	if NetworkSize(61, 2) >= NetworkSize(61, 3) {
		t.Error("NetworkSize not increasing in n' for high radix")
	}
	if NetworkSize(0, 1) != 0 {
		t.Error("NetworkSize should be 0 for degenerate radix")
	}
}

func TestConfigsForNTable4(t *testing.T) {
	// Table 4: N = 4K configurations.
	want := []FlatFlyConfig{
		{K: 64, N: 2, KPrime: 127, NPrime: 1, Nodes: 4096},
		{K: 16, N: 3, KPrime: 46, NPrime: 2, Nodes: 4096},
		{K: 8, N: 4, KPrime: 29, NPrime: 3, Nodes: 4096},
		{K: 4, N: 6, KPrime: 19, NPrime: 5, Nodes: 4096},
		// The paper's Table 4 prints k'=12 for this row, which is
		// inconsistent with its own formula k' = n(k-1)+1 = 13; we follow
		// the formula.
		{K: 2, N: 12, KPrime: 13, NPrime: 11, Nodes: 4096},
	}
	got := ConfigsForN(4096)
	if len(got) != len(want) {
		t.Fatalf("got %d configs %v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("config[%d] = %+v, want %+v", i, got[i], w)
		}
	}
}

func TestConfigsForN1024(t *testing.T) {
	got := ConfigsForN(1024)
	// 1024 = 32^2 = 4^5 = 2^10 (and not a perfect cube etc.).
	want := []FlatFlyConfig{
		{K: 32, N: 2, KPrime: 63, NPrime: 1, Nodes: 1024},
		{K: 4, N: 5, KPrime: 16, NPrime: 4, Nodes: 1024},
		{K: 2, N: 10, KPrime: 11, NPrime: 9, Nodes: 1024},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("config[%d] = %+v, want %+v", i, got[i], w)
		}
	}
}

func TestFixedRadixConfig(t *testing.T) {
	// §5.1.2: with radix-64 routers, n'=1 requires k'=63 to scale to 1K
	// nodes, and n'=3 requires k'=61 to scale to 64K.
	np, kp, max, err := FixedRadixConfig(64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if np != 1 || kp != 63 || max != 1024 {
		t.Errorf("FixedRadixConfig(64,1024) = n'=%d k'=%d max=%d, want 1/63/1024", np, kp, max)
	}
	np, kp, max, err = FixedRadixConfig(64, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if np != 3 || kp != 61 || max != 65536 {
		t.Errorf("FixedRadixConfig(64,65536) = n'=%d k'=%d max=%d, want 3/61/65536", np, kp, max)
	}
	// 4K with radix 64: n'=1 scales to 32^2=1024 < 4096, n'=2 scales to
	// floor(64/3)^3 = 21^3 = 9261 >= 4096.
	np, kp, _, err = FixedRadixConfig(64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if np != 2 || kp != 61 {
		t.Errorf("FixedRadixConfig(64,4096) = n'=%d k'=%d, want 2/61", np, kp)
	}
	if _, _, _, err := FixedRadixConfig(2, 100); err == nil {
		t.Error("tiny radix accepted")
	}
	if _, _, _, err := FixedRadixConfig(8, 1<<40); err == nil {
		t.Error("unreachable size accepted")
	}
}

func TestMaxNodesForRadix(t *testing.T) {
	cases := []struct{ radix, np, want int }{
		{64, 1, 1024},
		{64, 3, 65536},
		{64, 2, 21 * 21 * 21},
		{8, 1, 16},
		{8, 3, 16}, // floor(8/4)=2 -> 2^4 = 16
		{3, 2, 0},  // floor(3/3)=1 < 2: unbuildable
	}
	for _, c := range cases {
		if got := MaxNodesForRadix(c.radix, c.np); got != c.want {
			t.Errorf("MaxNodesForRadix(%d,%d) = %d, want %d", c.radix, c.np, got, c.want)
		}
	}
}

func TestIntegerRoot(t *testing.T) {
	cases := []struct{ v, n, want int }{
		{4096, 2, 64}, {4096, 3, 16}, {4096, 4, 8}, {4096, 12, 2},
		{1000, 3, 10}, {999, 3, 9}, {1, 5, 1}, {0, 2, 0},
	}
	for _, c := range cases {
		if got := integerRoot(c.v, c.n); got != c.want {
			t.Errorf("integerRoot(%d,%d) = %d, want %d", c.v, c.n, got, c.want)
		}
	}
}
