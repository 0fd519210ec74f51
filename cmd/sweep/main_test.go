package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"flatnet/internal/sim"
	"flatnet/internal/spec"
)

// tinyGrid is a sub-second grid: 2 algorithms x 2 patterns x 2 loads on
// the 4-ary 2-flat.
func tinyGrid(cachePath string) cliConfig {
	return cliConfig{
		net: "flatfly", k: 4, n: 2,
		algs:     []string{"MIN AD", "CLOS AD"},
		patterns: []string{"UR", "WC"},
		loads:    []float64{0.2, 0.5},
		warmup:   100, measure: 100, maxCycles: 2000,
		seed: 1, buf: 32, sat: true,
		workers: 2, cachePath: cachePath,
	}
}

func TestRunEmitsSeriesBlocks(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), tinyGrid(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# sweep: flatfly k=4 n=2 pattern UR seed 1",
		"# sweep: flatfly k=4 n=2 pattern WC seed 1",
		"load\tlat_MIN_AD\tlat_CLOS_AD",
		"# saturation throughput",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Two data rows per pattern block, tab-separated with one column per
	// algorithm — the results/*.txt shape.
	rows := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "0.") {
			rows++
			if got := len(strings.Split(line, "\t")); got != 3 {
				t.Errorf("row %q has %d columns, want 3", line, got)
			}
		}
	}
	if rows != 4 {
		t.Errorf("expected 4 data rows, got %d", rows)
	}
}

func TestRunWarmCacheRerunIsIdentical(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "grid.jsonl")
	var cold, warm bytes.Buffer
	var coldLog, warmLog bytes.Buffer
	if err := run(context.Background(), tinyGrid(cache), &cold, &coldLog); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), tinyGrid(cache), &warm, &warmLog); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm-cache output differs from cold output:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
	if !strings.Contains(warmLog.String(), "0 simulated") {
		t.Errorf("warm re-run should simulate nothing:\n%s", warmLog.String())
	}
}

func TestRunRejectsEmptyGrid(t *testing.T) {
	cfg := tinyGrid("")
	cfg.loads = nil
	if err := run(context.Background(), cfg, io.Discard, io.Discard); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestParseLoads(t *testing.T) {
	if got, err := parseLoads("0.1, 0.5,0.9"); err != nil || len(got) != 3 {
		t.Errorf("parseLoads: %v %v", got, err)
	}
	for _, bad := range []string{"0.5,0.1", "1.5", "x"} {
		if _, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads accepted %q", bad)
		}
	}
}

// TestRunFoldedClosGrid runs a grid on the §3.3 folded Clos the -k and -n
// flags name: 16 terminals, 4 per leaf, 2:1 tapered.
func TestRunFoldedClosGrid(t *testing.T) {
	cfg := tinyGrid("")
	cfg.net, cfg.algs, cfg.patterns, cfg.loads, cfg.sat = "foldedclos", []string{"adaptive sequential"}, []string{"UR"}, []float64{0.2}, false
	var out bytes.Buffer
	if err := run(context.Background(), cfg, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := "# sweep: foldedclos k=4 uplinks=2 leaves=4 middles=1 pattern UR"; !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
	}
	if strings.Contains(out.String(), "sat") {
		t.Errorf("a 0.2 uniform load saturated the folded Clos:\n%s", out.String())
	}
}

// TestHypercubeMatchesFlatsim holds a hypercube worst-case point to the
// one flatsim measures for the same flags (-topo hypercube -dims 4
// -pattern worstcase): the hypercube reads no -k, so -k must not change
// the point either.
func TestHypercubeMatchesFlatsim(t *testing.T) {
	cfg := tinyGrid("")
	cfg.net, cfg.n, cfg.algs, cfg.patterns, cfg.loads, cfg.sat = "hypercube", 4, []string{"e-cube"}, []string{"WC"}, []float64{0.3}, false
	cfg.maxCycles = 0 // flatsim's budget: the simulator default
	outputs := map[int]string{}
	for _, k := range []int{16, 1} {
		cfg.k = k
		var out bytes.Buffer
		if err := run(context.Background(), cfg, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		outputs[k] = out.String()
	}
	if outputs[16] != outputs[1] {
		t.Errorf("-k changed the hypercube grid:\n-k 16:\n%s\n-k 1:\n%s", outputs[16], outputs[1])
	}

	net, err := spec.Flags{Topo: "hypercube", Dims: 4}.Net()
	if err != nil {
		t.Fatal(err)
	}
	tp, alg, conc, err := net.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, src, err := spec.Workload{Pattern: "worstcase"}.Build(tp.Graph().NumNodes, conc, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunLoadPoint(tp.Graph(), alg, sim.Config{Seed: cfg.seed, BufPerPort: cfg.buf},
		sim.RunConfig{Load: 0.3, Source: src, Warmup: cfg.warmup, Measure: cfg.measure})
	if err != nil {
		t.Fatal(err)
	}
	if row := fmt.Sprintf("\n0.30\t%.2f\n", want.AvgLatency); !strings.Contains(outputs[16], row) {
		t.Errorf("grid lacks flatsim's point %q:\n%s", row, outputs[16])
	}
}
