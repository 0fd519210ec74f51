package sim_test

import (
	"bytes"
	"cmp"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

func traceFF(t *testing.T) (*topo.FlatFly, func() sim.Algorithm) {
	t.Helper()
	ff, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ff, func() sim.Algorithm {
		alg, err := routing.NewFlatFlyAlgorithm("ugal", ff)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	in := []sim.TraceEntry{
		{Cycle: 0, Src: 3, Dst: 7},
		{Cycle: 0, Src: 5, Dst: 1, Size: 4},
		{Cycle: 12, Src: 0, Dst: 15, Size: 1},
	}
	var buf bytes.Buffer
	if err := sim.WriteTraceJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
}

// readTrace reads a whole JSONL workload trace through a TraceScanner.
func readTrace(r io.Reader) ([]sim.TraceEntry, error) {
	sc := sim.NewTraceScanner(r)
	var out []sim.TraceEntry
	for {
		e, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

func TestTraceScannerRejects(t *testing.T) {
	cases := []struct{ name, in string }{
		{"malformed json", "{\"cycle\":0,\n"},
		{"negative src", `{"cycle":0,"src":-1,"dst":2}` + "\n"},
		{"negative cycle", `{"cycle":-5,"src":0,"dst":2}` + "\n"},
		{"negative size", `{"cycle":0,"src":0,"dst":2,"size":-3}` + "\n"},
		{"out of order", `{"cycle":9,"src":0,"dst":2}` + "\n" + `{"cycle":3,"src":0,"dst":2}` + "\n"},
		{"oversized", `{"cycle":0,"src":0,"dst":2,"size":99999999}` + "\n"},
		{"float cycle", `{"cycle":1.5,"src":0,"dst":2}` + "\n"},
	}
	for _, c := range cases {
		if _, err := readTrace(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Blank lines and unknown fields are tolerated.
	ok := "\n" + `{"cycle":2,"src":1,"dst":0,"note":"x"}` + "\n\n"
	out, err := readTrace(strings.NewReader(ok))
	if err != nil || len(out) != 1 {
		t.Fatalf("lenient parse failed: %v, %d entries", err, len(out))
	}
}

// TestTraceReplayRoundTrip is the record -> replay identity: a workload
// recorded to the JSONL format and replayed on a fresh network yields
// the exact same delivery sequence as the original run.
func TestTraceReplayRoundTrip(t *testing.T) {
	ff, newAlg := traceFF(t)
	// A bursty uniform run.
	src, err := traffic.NewOnOff(traffic.NewUniform(ff.NumNodes), 0.8, 12)
	if err != nil {
		t.Fatal(err)
	}
	recordReplay(t, ff.Graph(), newAlg, src, 0.25, 1200)
}

// TestTraceReplayRoundTripBacklog is the same identity when source
// backlogs delay materialization, so a recording's entries are out of
// cycle order across sources: incast at load 0.3 on an 8-ary 2-flat.
func TestTraceReplayRoundTripBacklog(t *testing.T) {
	ff, err := topo.NewFlatFly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	incast, err := traffic.NewIncast(ff.NumNodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	newAlg := func() sim.Algorithm {
		alg, err := routing.NewFlatFlyAlgorithm("clos", ff)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	trace := recordReplay(t, ff.Graph(), newAlg, traffic.NewBernoulli(incast), 0.3, 300)
	if slices.IsSortedFunc(trace, func(a, b sim.TraceEntry) int { return cmp.Compare(a.Cycle, b.Cycle) }) {
		t.Fatal("the recording is in cycle order: no backlog delayed a materialization")
	}
}

// recordReplay records src at load for cycles, drained to completion,
// writes the recording with WriteTraceJSONL, replays it with ReplayTrace
// on a fresh network, requires the identical delivery sequence, and
// returns the recording.
func recordReplay(t *testing.T, g *topo.Graph, newAlg func() sim.Algorithm, src traffic.Source, load float64, cycles int) []sim.TraceEntry {
	t.Helper()
	cfg := sim.DefaultConfig()
	rec, err := sim.New(g, newAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.SetSource(src); err != nil {
		t.Fatal(err)
	}
	trace := rec.RecordTrace()
	var want []delivery
	rec.AttachHooks(&sim.Hooks{Deliver: recordInto(&want)})
	for i := 0; i < cycles; i++ {
		if err := rec.Generate(load); err != nil {
			t.Fatal(err)
		}
		rec.Step()
	}
	for i := 0; i < 50000; i++ {
		inj, del := rec.Totals()
		if rec.Backlog() == 0 && del >= inj {
			break
		}
		rec.Step()
	}
	if len(*trace) == 0 {
		t.Fatal("recorded no packets")
	}
	var buf bytes.Buffer
	if err := sim.WriteTraceJSONL(&buf, *trace); err != nil {
		t.Fatal(err)
	}

	rep, err := sim.New(g, newAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []delivery
	rep.AttachHooks(&sim.Hooks{Deliver: recordInto(&got)})
	injected, err := rep.ReplayTrace(sim.NewTraceScanner(bytes.NewReader(buf.Bytes())), 200000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if injected != int64(len(*trace)) {
		t.Fatalf("injected %d packets, trace has %d", injected, len(*trace))
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, original delivered %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d diverged: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return *trace
}

// TestTraceReplaySized checks that size-k entries inject k packets.
func TestTraceReplaySized(t *testing.T) {
	ff, newAlg := traceFF(t)
	n, err := sim.New(ff.Graph(), newAlg(), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	in := `{"cycle":0,"src":0,"dst":9,"size":5}` + "\n" + `{"cycle":3,"src":2,"dst":11}` + "\n"
	injected, err := n.ReplayTrace(sim.NewTraceScanner(strings.NewReader(in)), 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if injected != 6 {
		t.Fatalf("injected %d packets, want 6", injected)
	}
	inj, del := n.Totals()
	if inj != 6 || del != 6 {
		t.Fatalf("totals %d/%d, want 6/6", inj, del)
	}
}

// FuzzTraceReplay feeds arbitrary bytes through the JSONL scanner:
// malformed input must return an error naming its line (never panic),
// and anything that parses must re-encode canonically to an equal trace.
// The committed corpus includes a recording whose cycles are out of
// order across sources, the shape a backlogged RecordTrace produces.
func FuzzTraceReplay(f *testing.F) {
	f.Add([]byte(`{"cycle":0,"src":0,"dst":1}` + "\n"))
	f.Add([]byte(`{"cycle":2,"src":3,"dst":1,"size":7}` + "\n" + `{"cycle":2,"src":0,"dst":1}` + "\n"))
	f.Add([]byte(`{"cycle":9,"src":0,"dst":2}` + "\n" + `{"cycle":3,"src":0,"dst":2}` + "\n"))
	f.Add([]byte("{\"cycle\":0\n"))
	f.Add([]byte("\n# not json\n"))
	// Hostile inputs: a negative field, an integer overflow, a line torn
	// mid-object after a good one.
	f.Add([]byte(`{"cycle":-1,"src":2,"dst":3}` + "\n"))
	f.Add([]byte(`{"cycle":999999999999999999999,"src":1,"dst":1}` + "\n"))
	f.Add([]byte(`{"cycle":5,"src":0,"dst":0}` + "\n" + `{"cycle":7,"src":3,"ds`))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := readTrace(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "sim: trace line ") {
				t.Fatalf("unstructured error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := sim.WriteTraceJSONL(&buf, entries); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := readTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-read failed: %v", err)
		}
		if !reflect.DeepEqual(entries, back) {
			t.Fatalf("canonical round trip diverged:\n in: %+v\nout: %+v", entries, back)
		}
	})
}

// TestTraceScannerEOF pins the streaming contract: Next returns io.EOF
// exactly at end of input, including empty input.
func TestTraceScannerEOF(t *testing.T) {
	sc := sim.NewTraceScanner(strings.NewReader(""))
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("empty trace: %v, want io.EOF", err)
	}
}
