package stats

// TimeSeries accumulates a cycle-stamped event counter into fixed-width
// windows ("buckets"), retaining only the most recent buckets in a ring.
// It is the storage behind windowed telemetry — per-channel load over
// time, probe sample series — where a long simulation must expose its
// recent history at bounded memory.
//
// Buckets are sparse: a window in which nothing was recorded occupies no
// storage. Cycles must be recorded in non-decreasing order (a late
// sample for an already-current window folds into it; a sample older
// than the current window folds into the current window rather than
// resurrecting an evicted one).
type TimeSeries struct {
	window  int64
	buckets []TimeBucket // ring once len == cap
	head    int          // index of the oldest retained bucket
	total   int64        // lifetime events, evicted buckets included
	evicted int64        // events that were in evicted buckets
}

// TimeBucket is one window of a TimeSeries.
type TimeBucket struct {
	// Start is the first cycle the bucket covers; it spans
	// [Start, Start+window).
	Start int64
	// Count is the number of events recorded in the window.
	Count int64
}

// NewTimeSeries returns a series with the given window width in cycles,
// retaining at most depth buckets. Window and depth are clamped to 1.
func NewTimeSeries(window int64, depth int) *TimeSeries {
	if window < 1 {
		window = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &TimeSeries{window: window, buckets: make([]TimeBucket, 0, depth)}
}

// Window returns the bucket width in cycles.
func (t *TimeSeries) Window() int64 { return t.window }

// Len returns the number of retained buckets.
func (t *TimeSeries) Len() int { return len(t.buckets) }

// Total returns the lifetime event count, including evicted buckets.
func (t *TimeSeries) Total() int64 { return t.total }

// Retained returns the event count over the retained buckets only.
func (t *TimeSeries) Retained() int64 { return t.total - t.evicted }

// latest returns the most recent bucket; call only when Len() > 0.
func (t *TimeSeries) latest() *TimeBucket {
	return &t.buckets[(t.head+len(t.buckets)-1)%len(t.buckets)]
}

// Record adds count events at the given cycle, rolling to a new bucket
// when the cycle crosses a window boundary and evicting the oldest
// bucket once the ring is full.
func (t *TimeSeries) Record(cycle, count int64) {
	t.total += count
	start := cycle - cycle%t.window
	if len(t.buckets) > 0 && start <= t.latest().Start {
		t.latest().Count += count
		return
	}
	b := TimeBucket{Start: start, Count: count}
	if len(t.buckets) < cap(t.buckets) {
		t.buckets = append(t.buckets, b)
		return
	}
	t.evicted += t.buckets[t.head].Count
	t.buckets[t.head] = b
	t.head = (t.head + 1) % len(t.buckets)
}

// Buckets returns the retained buckets, oldest first.
func (t *TimeSeries) Buckets() []TimeBucket {
	out := make([]TimeBucket, 0, len(t.buckets))
	for i := 0; i < len(t.buckets); i++ {
		out = append(out, t.buckets[(t.head+i)%len(t.buckets)])
	}
	return out
}

// Rate returns retained events per cycle over the span from the oldest
// retained bucket's start through the end of the newest one, or 0 for an
// empty series. Because buckets are sparse, idle windows inside the span
// still count toward the denominator.
func (t *TimeSeries) Rate() float64 {
	if len(t.buckets) == 0 {
		return 0
	}
	oldest := t.buckets[t.head]
	span := t.latest().Start + t.window - oldest.Start
	return float64(t.Retained()) / float64(span)
}
