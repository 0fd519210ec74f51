package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"flatnet/internal/stats"
)

func TestLatencyRecorderQuantiles(t *testing.T) {
	r := NewLatencyRecorder(1000)
	for i := 1; i <= 100; i++ {
		r.Observe(time.Duration(i) * time.Microsecond)
	}
	s := r.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d, want 100", s.Count)
	}
	if s.MeanUS < 50 || s.MeanUS > 51 {
		t.Fatalf("mean %.2f, want ~50.5", s.MeanUS)
	}
	if s.P50US < 49 || s.P50US > 52 {
		t.Fatalf("p50 %.2f, want ~50", s.P50US)
	}
	if s.P99US < 98 || s.P99US > 100 {
		t.Fatalf("p99 %.2f, want ~99", s.P99US)
	}
	if s.MaxUS != 100 {
		t.Fatalf("max %.2f, want 100", s.MaxUS)
	}
}

// TestLatencyRecorderMatchesQuantile holds Snapshot's sort-once quantiles
// to stats.Quantile of the same window, on unsorted observations that
// have wrapped the ring.
func TestLatencyRecorderMatchesQuantile(t *testing.T) {
	r := NewLatencyRecorder(257)
	var recent []float64
	x := uint32(12345)
	for i := 0; i < 1000; i++ {
		x = x*1664525 + 1013904223
		us := float64(x>>12) / 8 // exact in binary, so Observe's round trip is lossless
		r.Observe(time.Duration(us * float64(time.Microsecond)))
		recent = append(recent, us)
	}
	recent = recent[len(recent)-257:]
	s := r.Snapshot()
	for _, c := range []struct {
		name string
		got  float64
		q    float64
	}{{"p50", s.P50US, 0.50}, {"p95", s.P95US, 0.95}, {"p99", s.P99US, 0.99}} {
		if want := stats.Quantile(recent, c.q); c.got != want {
			t.Errorf("%s = %v, stats.Quantile gives %v", c.name, c.got, want)
		}
	}
}

// TestLatencyRecorderWindow verifies the reservoir slides: quantiles
// reflect recent observations while count/max stay lifetime-exact.
func TestLatencyRecorderWindow(t *testing.T) {
	r := NewLatencyRecorder(10)
	r.Observe(time.Second) // ancient outlier, evicted below
	for i := 0; i < 10; i++ {
		r.Observe(5 * time.Microsecond)
	}
	s := r.Snapshot()
	if s.Count != 11 {
		t.Fatalf("count %d, want 11", s.Count)
	}
	if s.P99US != 5 {
		t.Fatalf("windowed p99 %.2f, want 5 (outlier should have slid out)", s.P99US)
	}
	if s.MaxUS != 1e6 {
		t.Fatalf("lifetime max %.2f, want 1e6", s.MaxUS)
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	r := NewLatencyRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if s := r.Snapshot(); s.Count != 4000 {
		t.Fatalf("count %d, want 4000", s.Count)
	}
}

func TestLatencySnapshotJSON(t *testing.T) {
	r := NewLatencyRecorder(8)
	r.Observe(3 * time.Microsecond)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", k, b)
		}
	}
}
