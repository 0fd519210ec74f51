// Package stats provides the measurement accumulators used by the
// simulator: running means, histograms, percentiles and rate meters.
//
// The simulator records per-packet latencies and per-node delivery counts;
// this package turns those raw observations into the latency and throughput
// figures reported in the paper's evaluation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator collects scalar samples and reports summary statistics.
// The zero value is an empty accumulator ready for use.
type Accumulator struct {
	n        int
	sum      float64
	sumSq    float64
	min, max float64
}

// Add records one sample.
func (a *Accumulator) Add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
	a.sumSq += v * v
}

// Count returns the number of samples recorded.
func (a *Accumulator) Count() int { return a.n }

// Sum returns the total of all samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Variance returns the population variance, or 0 with fewer than two samples.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	m := a.Mean()
	v := a.sumSq/float64(a.n) - m*m
	if v < 0 { // guard against floating-point cancellation
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample, or 0 for an empty accumulator.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest sample, or 0 for an empty accumulator.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// Reset discards all samples.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// Merge folds the samples of other into a.
func (a *Accumulator) Merge(other *Accumulator) {
	if other.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *other
		return
	}
	if other.min < a.min {
		a.min = other.min
	}
	if other.max > a.max {
		a.max = other.max
	}
	a.n += other.n
	a.sum += other.sum
	a.sumSq += other.sumSq
}

// String summarises the accumulator for logs and debug output.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		a.n, a.Mean(), a.StdDev(), a.Min(), a.Max())
}

// Histogram counts integer-valued samples (e.g. packet latencies in cycles)
// in unit-width bins so that exact percentiles can be extracted.
type Histogram struct {
	bins     []int64 // bins[i] counts samples with value i, up to cap
	overflow int64   // samples >= len(bins)
	n        int64
	total    int64 // sum of all sample values, including overflowed ones
	max      int   // largest sample seen, exact even for overflowed samples
}

// NewHistogram returns a histogram covering [0, maxValue]; larger samples
// are tallied in a single overflow bin (their exact values still contribute
// to the mean).
func NewHistogram(maxValue int) *Histogram {
	if maxValue < 0 {
		maxValue = 0
	}
	return &Histogram{bins: make([]int64, maxValue+1)}
}

// Add records a sample. Negative samples clamp to 0.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v < len(h.bins) {
		h.bins[v]++
	} else {
		h.overflow++
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.total += int64(v)
}

// Max returns the largest sample recorded, exact even for samples beyond
// the histogram range, or 0 for an empty histogram.
func (h *Histogram) Max() int { return h.max }

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.n }

// Overflow returns the number of samples beyond the histogram range.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Mean returns the exact sample mean (overflowed samples included).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.total) / float64(h.n)
}

// Percentile returns the smallest value v such that at least p (0..1) of the
// samples are <= v. Overflowed samples report as maxValue+1.
func (h *Histogram) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for v, c := range h.bins {
		cum += c
		if cum >= target {
			return v
		}
	}
	return len(h.bins)
}

// Reset discards all samples, keeping the bin range.
func (h *Histogram) Reset() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.overflow, h.n, h.total, h.max = 0, 0, 0, 0
}

// RateMeter measures an event rate over a window of cycles, e.g. accepted
// flits per node per cycle for throughput measurement.
type RateMeter struct {
	events int64
	start  int64
	end    int64
}

// NewRateMeter returns a meter measuring from cycle start (inclusive).
func NewRateMeter(start int64) *RateMeter {
	return &RateMeter{start: start, end: start}
}

// Record counts n events at the given cycle.
func (m *RateMeter) Record(cycle int64, n int) {
	m.events += int64(n)
	if cycle+1 > m.end {
		m.end = cycle + 1
	}
}

// Events returns the number of recorded events.
func (m *RateMeter) Events() int64 { return m.events }

// Window returns the number of cycles covered, at least 0.
func (m *RateMeter) Window() int64 {
	if m.end < m.start {
		return 0
	}
	return m.end - m.start
}

// Rate returns events per cycle over the observed window.
func (m *RateMeter) Rate() float64 {
	w := m.Window()
	if w == 0 {
		return 0
	}
	return float64(m.events) / float64(w)
}

// Series is an ordered set of (x, y) points, used to assemble the data
// behind a paper figure. X values are kept in insertion order.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds a point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the y value for the first point with the given x, and whether
// one exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// MaxY returns the largest y value, or 0 for an empty series.
func (s *Series) MaxY() float64 {
	max := 0.0
	for i, y := range s.Y {
		if i == 0 || y > max {
			max = y
		}
	}
	return max
}

// Quantile returns the q-th (0..1) quantile of data by linear interpolation.
// It copies and sorts the input. An empty slice yields 0.
func Quantile(data []float64, q float64) float64 {
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return SortedQuantile(sorted, q)
}

// SortedQuantile is Quantile for data already sorted ascending: it reads
// the slice in place, so a caller that needs several quantiles of one
// sample sorts once. An empty slice yields 0.
func SortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
