package sim_test

import (
	"bytes"
	"io"
	"reflect"
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
	out, err := sim.ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", in, out)
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
		if _, err := sim.ReadTraceJSONL(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Blank lines and unknown fields are tolerated.
	ok := "\n" + `{"cycle":2,"src":1,"dst":0,"note":"x"}` + "\n\n"
	out, err := sim.ReadTraceJSONL(strings.NewReader(ok))
	if err != nil || len(out) != 1 {
		t.Fatalf("lenient parse failed: %v, %d entries", err, len(out))
	}
}

// TestTraceReplayRoundTrip is the record -> replay identity: a workload
// recorded to the JSONL format and replayed on a fresh network yields
// the exact same delivery sequence as the original run.
func TestTraceReplayRoundTrip(t *testing.T) {
	ff, newAlg := traceFF(t)
	cfg := sim.DefaultConfig()

	// Record a bursty uniform run, drained to completion.
	rec, err := sim.New(ff.Graph(), newAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	src, err := traffic.NewOnOff(traffic.NewUniform(rec.NumNodes()), 0.8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.SetSource(src); err != nil {
		t.Fatal(err)
	}
	trace := rec.RecordTrace()
	var want []delivery
	rec.OnDeliver(recordInto(&want))
	for i := 0; i < 1200; i++ {
		if err := rec.Generate(0.25); err != nil {
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

	rep, err := sim.New(ff.Graph(), newAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []delivery
	rep.OnDeliver(recordInto(&got))
	injected, err := rep.ReplayTrace(sim.NewTraceScanner(bytes.NewReader(buf.Bytes())), 200000)
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
	injected, err := n.ReplayTrace(sim.NewTraceScanner(strings.NewReader(in)), 10000)
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
// malformed input must error (never panic), and anything that parses
// must re-encode canonically to an equal trace.
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
		entries, err := sim.ReadTraceJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := sim.WriteTraceJSONL(&buf, entries); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := sim.ReadTraceJSONL(bytes.NewReader(buf.Bytes()))
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
