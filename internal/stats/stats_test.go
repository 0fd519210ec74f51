package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Min() != 0 || a.Max() != 0 || a.Count() != 0 {
		t.Fatal("zero accumulator should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if a.Count() != 8 {
		t.Fatalf("count = %d", a.Count())
	}
	if !almostEqual(a.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", a.Mean())
	}
	if !almostEqual(a.StdDev(), 2, 1e-9) {
		t.Fatalf("stddev = %v", a.StdDev())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorReset(t *testing.T) {
	var a Accumulator
	a.Add(10)
	a.Reset()
	if a.Count() != 0 || a.Sum() != 0 {
		t.Fatal("Reset did not clear accumulator")
	}
}

// bounded maps an arbitrary generated float into a numerically sane range
// so that sums and squares cannot overflow to +/-Inf.
func bounded(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestVarianceNonNegative(t *testing.T) {
	check := func(xs []float64) bool {
		var a Accumulator
		for _, v := range xs {
			a.Add(bounded(v))
		}
		return a.Variance() >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int{0, 1, 1, 2, 3, 5, 8, 10} {
		h.Add(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	wantMean := float64(0+1+1+2+3+5+8+10) / 8
	if !almostEqual(h.Mean(), wantMean, 1e-12) {
		t.Fatalf("mean = %v want %v", h.Mean(), wantMean)
	}
	if p := h.Percentile(0.5); p != 2 {
		t.Fatalf("p50 = %d, want 2", p)
	}
	if p := h.Percentile(1.0); p != 10 {
		t.Fatalf("p100 = %d, want 10", p)
	}
	if p := h.Percentile(0); p != 0 {
		t.Fatalf("p0 = %d, want 0", p)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(4)
	h.Add(100)
	h.Add(2)
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	if !almostEqual(h.Mean(), 51, 1e-12) {
		t.Fatalf("mean should include overflow values exactly, got %v", h.Mean())
	}
	if p := h.Percentile(1.0); p != 5 {
		t.Fatalf("overflowed percentile = %d, want maxValue+1 = 5", p)
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	h := NewHistogram(4)
	h.Add(-3)
	if h.Count() != 1 || h.Percentile(1) != 0 {
		t.Fatal("negative sample should clamp to 0")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(4)
	h.Add(3)
	h.Add(99)
	h.Reset()
	if h.Count() != 0 || h.Overflow() != 0 || h.Mean() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	check := func(vals []uint8) bool {
		h := NewHistogram(255)
		for _, v := range vals {
			h.Add(int(v))
		}
		prev := -1
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			p := h.Percentile(q)
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(data, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) should be 0")
	}
	// Interpolated case: quantile 0.5 of {1,2} is 1.5.
	if got := Quantile([]float64{2, 1}, 0.5); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("interpolated quantile = %v, want 1.5", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	data := []float64{3, 1, 2}
	Quantile(data, 0.5)
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestAccumulatorString(t *testing.T) {
	var a Accumulator
	a.Add(2)
	a.Add(4)
	s := a.String()
	if s == "" || !strings.Contains(s, "n=2") || !strings.Contains(s, "mean=3.000") {
		t.Fatalf("String() = %q", s)
	}
}

// TestSelectQuantilesMatchesSort holds the selection to SortedQuantile of
// the sorted sample, value for value, on random samples with heavy
// duplication and on the orders that defeat naive pivots.
func TestSelectQuantilesMatchesSort(t *testing.T) {
	qs := []float64{0, 0.01, 0.5, 0.5, 0.95, 0.99, 1}
	x := uint32(7)
	for n := 1; n <= 300; n += 1 + n/8 {
		for shape := 0; shape < 5; shape++ {
			data := make([]float64, n)
			for i := range data {
				x = x*1664525 + 1013904223
				switch shape {
				case 0:
					data[i] = float64(x>>8) / 16
				case 1:
					data[i] = float64(x >> 29) // eight distinct values
				case 2:
					data[i] = float64(i)
				case 3:
					data[i] = float64(n - i)
				case 4:
					data[i] = float64(min(i, n-i)) // organ pipe
				}
			}
			sorted := append([]float64(nil), data...)
			sort.Float64s(sorted)
			got := SelectQuantiles(data, qs...)
			for i, q := range qs {
				if want := SortedQuantile(sorted, q); got[i] != want {
					t.Fatalf("n=%d shape %d q=%v: selected %v, sorted gives %v", n, shape, q, got[i], want)
				}
			}
		}
	}
	if got := SelectQuantiles(nil, 0.5); got[0] != 0 {
		t.Fatalf("empty sample: %v, want 0", got[0])
	}
}
