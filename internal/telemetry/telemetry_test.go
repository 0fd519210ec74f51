package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("jobs") != c {
		t.Fatal("Counter not idempotent per name")
	}
	r.Gauge("depth", func() any { return 7 })
	snap := r.Snapshot()
	if snap["jobs"] != int64(5) {
		t.Errorf("snapshot jobs = %v, want 5", snap["jobs"])
	}
	if snap["depth"] != 7 {
		t.Errorf("snapshot depth = %v, want 7", snap["depth"])
	}
	// Gauge replacement is allowed.
	r.Gauge("depth", func() any { return 9 })
	if got := r.Snapshot()["depth"]; got != 9 {
		t.Errorf("replaced gauge = %v, want 9", got)
	}
	// String renders valid JSON with both metrics.
	var decoded map[string]any
	if err := json.Unmarshal([]byte(r.String()), &decoded); err != nil {
		t.Fatalf("String is not JSON: %v", err)
	}
	if decoded["jobs"] != float64(5) || decoded["depth"] != float64(9) {
		t.Errorf("String JSON = %v", decoded)
	}
}

func TestRegistryTypeCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	assertPanics(t, "gauge over counter", func() { r.Gauge("x", func() any { return 0 }) })
	r.Gauge("y", func() any { return 0 })
	assertPanics(t, "counter over gauge", func() { _ = r.Counter("y") })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestRegistryPublish(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	if err := r.Publish("telemetry_test_pub"); err != nil {
		t.Fatal(err)
	}
	// Same registry again: no-op.
	if err := r.Publish("telemetry_test_pub"); err != nil {
		t.Fatalf("re-publishing same registry: %v", err)
	}
	// A different registry under the same name: error, not panic.
	if err := NewRegistry().Publish("telemetry_test_pub"); err == nil {
		t.Fatal("conflicting publish accepted")
	}
}

func testEvents(n int) []FlitEvent {
	out := make([]FlitEvent, n)
	for i := range out {
		out[i] = FlitEvent{
			Cycle: int64(i), Kind: EventKind(i % int(numEventKinds)),
			Packet: int64(i / 5), Src: i % 3, Dst: (i + 1) % 7,
			Router: i % 4, Port: i % 6, VC: i%2 - 1, Tail: i%5 == 4,
		}
	}
	return out
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	evs := testEvents(6)
	for _, ev := range evs {
		tr.Record(ev)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	if got := tr.Events(); !reflect.DeepEqual(got, evs[2:]) {
		t.Errorf("Events = %+v, want last 4", got)
	}
}

func TestEventKindRoundTrip(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		got, err := ParseEventKind(k.String())
		if err != nil || got != k {
			t.Errorf("kind %d: round trip gave %v, %v", k, got, err)
		}
	}
	if _, err := ParseEventKind("bogus"); err == nil {
		t.Error("bogus kind parsed")
	}
	if s := EventKind(250).String(); !strings.Contains(s, "250") {
		t.Errorf("out-of-range kind String = %q", s)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	evs := testEvents(12)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(evs) {
		t.Errorf("%d lines, want %d", lines, len(evs))
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, evs)
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"bogus"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	evs := testEvents(12)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	// The file must be a valid Chrome trace object with a traceEvents
	// array containing both metadata and slice events.
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("not a trace object: %v", err)
	}
	var slices, metas int
	for _, ev := range f.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
		case "M":
			metas++
		}
	}
	if slices != len(evs) {
		t.Errorf("%d slice events, want %d", slices, len(evs))
	}
	if metas == 0 {
		t.Error("no process_name metadata events")
	}
	got, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, evs)
	}
}

func TestServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests").Add(3)
	if err := reg.Publish("telemetry_test_server"); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	vars := get("/debug/vars")
	if !strings.Contains(vars, `"telemetry_test_server"`) || !strings.Contains(vars, `"requests":3`) {
		t.Errorf("/debug/vars missing registry: %s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ does not look like a pprof index")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
