// Package stats provides the measurement accumulators used by the
// simulator: running means, histograms, percentiles and time series.
//
// The simulator records per-packet latencies and per-node delivery counts;
// this package turns those raw observations into the latency and throughput
// figures reported in the paper's evaluation.
package stats

import (
	"fmt"
	"math"
	"math/bits"
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

// String summarises the accumulator for logs and debug output.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		a.n, a.Mean(), a.StdDev(), a.Min(), a.Max())
}

// Histogram counts integer-valued samples (e.g. packet latencies in cycles)
// in unit-width bins so that exact percentiles can be extracted.
type Histogram struct {
	bins  []int64 // bins[i] counts samples with value i, up to cap
	n     int64
	total int64 // sum of all sample values, including overflowed ones
	max   int   // largest sample seen, exact even for overflowed samples
}

// NewHistogram returns a histogram covering [0, maxValue]; larger samples
// fall in no bin, so a percentile that reaches them reports maxValue+1
// (their exact values still contribute to the mean).
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

// Quantile returns the q-th (0..1) quantile of data by linear interpolation.
// It copies and sorts the input. An empty slice yields 0.
func Quantile(data []float64, q float64) float64 {
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return SortedQuantile(sorted, q)
}

// SortedQuantile is Quantile for data already sorted ascending: it reads
// the slice in place. An empty slice yields 0.
func SortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	lo, hi, frac := quantileRanks(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quantileRanks returns the ranks of a sorted sample of n values that
// the q-th quantile interpolates between, and the weight of the upper.
// hi is lo or lo+1.
func quantileRanks(n int, q float64) (lo, hi int, frac float64) {
	if q <= 0 {
		return 0, 0, 0
	}
	if q >= 1 {
		return n - 1, n - 1, 0
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// SelectQuantiles returns SortedQuantile of data sorted, for each of the
// ascending quantiles qs, without sorting: it selects the order
// statistics it needs (quickselect, expected O(n) for the first and less
// for each next one) and reorders data in place. data must hold no NaN.
func SelectQuantiles(data []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(data) == 0 {
		return out
	}
	from := 0 // data[:from] holds ranks below every quantile still to come
	for i, q := range qs {
		lo, hi, frac := quantileRanks(len(data), q)
		v := selectRank(data[from:], lo-from)
		from = lo
		if lo == hi {
			out[i] = v
			continue
		}
		// Everything after rank lo is >= it, so rank hi is their minimum.
		next := data[hi]
		for _, x := range data[hi+1:] {
			next = min(next, x)
		}
		out[i] = v*(1-frac) + next*frac
	}
	return out
}

// selectRank reorders a so that a[k] holds the value of rank k, every
// element before it is <= it and every one after >= it, and returns
// a[k]. Partitions are three-way around a median-of-three pivot; a range
// that resists 2·log2(n) of them is sorted instead.
func selectRank(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			break
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		p := max(min(x, y), min(max(x, y), z))
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case a[i] < p:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case a[i] > p:
				a[i], a[gt] = a[gt], a[i]
				gt--
			default:
				i++
			}
		}
		// a[lo:lt] < p, a[lt:gt+1] == p, a[gt+1:hi+1] > p.
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return p
		}
	}
	return a[k]
}
