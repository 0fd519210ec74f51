package experiments

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"flatnet/internal/sweep"
)

// Each figure's claims at quick scale. The worst-case and
// equal-bisection saturation figures run every job under the runtime
// sanitizer; sanitizing the rest too would quadruple their time for no
// new coverage.

func TestFig4URHeadlines(t *testing.T)        { checkQuick(t, false, "4a") }
func TestFig4WCHeadlines(t *testing.T)        { checkQuick(t, true, "4b") }
func TestFig5Shape(t *testing.T)              { checkQuick(t, false, "5") }
func TestFig6Headlines(t *testing.T)          { checkQuick(t, true, "6a", "6b") }
func TestFig12VAL(t *testing.T)               { checkQuick(t, false, "12a") }
func TestFig12MINAD(t *testing.T)             { checkQuick(t, false, "12b") }
func TestFig14RedundantChannels(t *testing.T) { checkQuick(t, false, "14") }

// TestFig4aParallelByteIdentical is the determinism regression for the
// sweep engine: a parallel Fig. 4(a) run (quick scale) must produce
// byte-identical series to the sequential path — same latencies, same
// saturation markers, same saturation throughputs, in the same order.
func TestFig4aParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale simulation in -short mode")
	}
	s := scale(true)
	seq, err := runSeries(&sweep.Engine{Workers: 1}, fig4Jobs(s, "UR"), s.loads)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runSeries(&sweep.Engine{Workers: 6}, fig4Jobs(s, "UR"), s.loads)
	if err != nil {
		t.Fatal(err)
	}
	seqBytes, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parBytes, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqBytes, parBytes) {
		t.Errorf("parallel Fig 4a diverged from sequential:\nseq %s\npar %s", seqBytes, parBytes)
	}
}

// TestFig4aCachedRerunSimulatesNothing: a warm cache must serve the
// whole figure with zero simulations, and the served results must match
// the cold run exactly.
func TestFig4aCachedRerunSimulatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale simulation in -short mode")
	}
	s := scale(true)
	s.loads = []float64{0.3, 0.7} // trimmed: cache behavior, not curve shape
	path := filepath.Join(t.TempDir(), "cache.jsonl")

	cold, err := sweep.OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	coldEng := &sweep.Engine{Workers: 4, Cache: cold}
	first, err := runSeries(coldEng, fig4Jobs(s, "UR"), s.loads)
	if err != nil {
		t.Fatal(err)
	}
	cold.Close()
	if st := coldEng.Stats(); st.Simulated == 0 {
		t.Fatalf("cold run simulated nothing: %+v", st)
	}

	warm, err := sweep.OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warmEng := &sweep.Engine{Workers: 4, Cache: warm}
	second, err := runSeries(warmEng, fig4Jobs(s, "UR"), s.loads)
	if err != nil {
		t.Fatal(err)
	}
	if st := warmEng.Stats(); st.Simulated != 0 {
		t.Errorf("warm re-run executed %d simulations, want 0 (%+v)", st.Simulated, st)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Errorf("cached figure differs from computed figure")
	}
}
