package main

import (
	"io"
	"strings"
	"testing"

	"flatnet/internal/spec"
)

func flags(topo string, k int) spec.Flags {
	return spec.Flags{Topo: topo, K: k, N: 2, Dims: 4, Taper: 2}
}

func TestRunSummary(t *testing.T) {
	for _, topo := range []string{"ff", "butterfly", "clos", "hypercube", "torus", "ghc"} {
		var out strings.Builder
		if err := run(&out, flags(topo, 4), false); err != nil {
			t.Errorf("%s: %v", topo, err)
		}
		if !strings.Contains(out.String(), "nodes:      16\n") || !strings.HasSuffix(out.String(), "graph:      valid\n") {
			t.Errorf("%s: summary lacks 16 nodes or a valid graph:\n%s", topo, out.String())
		}
	}
}

func TestRunDOT(t *testing.T) {
	var out strings.Builder
	if err := run(&out, flags("ff", 4), true); err != nil {
		t.Errorf("dot: %v", err)
	}
	if !strings.Contains(out.String(), "graph network {") {
		t.Errorf("dot output holds no graph:\n%.80s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, flags("bogus", 4), false); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := run(io.Discard, flags("ff", 1), false); err == nil {
		t.Error("invalid parameters accepted")
	}
	clos := flags("clos", 4)
	clos.Taper = 0
	if err := run(io.Discard, clos, false); err == nil {
		t.Error("zero taper accepted")
	}
}
