package stats

import "testing"

func TestTimeSeriesBucketing(t *testing.T) {
	ts := NewTimeSeries(10, 4)
	ts.Record(0, 2)
	ts.Record(5, 3)  // same window [0,10)
	ts.Record(10, 1) // next window
	if ts.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ts.Len())
	}
	b := ts.Buckets()
	if b[0].Start != 0 || b[0].Count != 5 {
		t.Errorf("bucket 0 = %+v, want {0 5}", b[0])
	}
	if b[1].Start != 10 || b[1].Count != 1 {
		t.Errorf("bucket 1 = %+v, want {10 1}", b[1])
	}
	if ts.Total() != 6 || ts.Retained() != 6 {
		t.Errorf("Total/Retained = %d/%d, want 6/6", ts.Total(), ts.Retained())
	}
}

func TestTimeSeriesSparse(t *testing.T) {
	// Idle windows occupy no bucket but still dilute Rate.
	ts := NewTimeSeries(10, 8)
	ts.Record(0, 10)
	ts.Record(90, 10) // windows 10..80 are empty
	if ts.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (sparse)", ts.Len())
	}
	// Span is [0, 100): 20 events over 100 cycles.
	if got := ts.Rate(); got != 0.2 {
		t.Errorf("Rate = %v, want 0.2", got)
	}
}

func TestTimeSeriesEviction(t *testing.T) {
	ts := NewTimeSeries(10, 3)
	for i := int64(0); i < 5; i++ {
		ts.Record(i*10, 1+i)
	}
	// Buckets 0 (count 1) and 10 (count 2) evicted; 20, 30, 40 retained.
	if ts.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ts.Len())
	}
	b := ts.Buckets()
	for i, want := range []int64{20, 30, 40} {
		if b[i].Start != want {
			t.Errorf("bucket %d start = %d, want %d", i, b[i].Start, want)
		}
	}
	if ts.Total() != 15 {
		t.Errorf("Total = %d, want 15", ts.Total())
	}
	if ts.Retained() != 12 {
		t.Errorf("Retained = %d, want 12 (3+4+5)", ts.Retained())
	}
	// Rate covers [20, 50): 12 events / 30 cycles.
	if got := ts.Rate(); got != 0.4 {
		t.Errorf("Rate = %v, want 0.4", got)
	}
}

func TestTimeSeriesLateSampleFolds(t *testing.T) {
	ts := NewTimeSeries(10, 4)
	ts.Record(25, 1)
	ts.Record(12, 2) // older than the current window: folds into it
	if ts.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ts.Len())
	}
	if b := ts.Buckets()[0]; b.Start != 20 || b.Count != 3 {
		t.Errorf("bucket = %+v, want {20 3}", b)
	}
}

func TestTimeSeriesClamp(t *testing.T) {
	ts := NewTimeSeries(0, 0) // clamps to window 1, depth 1
	if ts.Window() != 1 {
		t.Errorf("Window = %d, want 1", ts.Window())
	}
	ts.Record(3, 7)
	ts.Record(4, 1) // evicts the only bucket
	if ts.Retained() != 1 || ts.Total() != 8 {
		t.Errorf("Retained/Total = %d/%d, want 1/8", ts.Retained(), ts.Total())
	}
}
