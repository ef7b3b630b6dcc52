// Package stats provides the descriptive statistics and histogramming used
// by the Monte-Carlo study: exact moments and quantiles over collected
// samples, streaming (Welford) moments for long runs, and the ASCII
// histogram rendering behind the Fig. 5 reproduction.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Summary holds descriptive statistics of a sample set.
type Summary struct {
	N        int
	Mean     float64
	Std      float64 // sample standard deviation (n−1)
	Min, Max float64
	Median   float64
	P05, P95 float64
	Skew     float64
}

// Summarize computes exact statistics over values, which it sorts in
// place into the bits sort.Float64s would leave: with a radix sort
// (sortFloat64s) that hands values holding a NaN or both signs of zero to
// sort.Float64s itself. It allocates nothing and starts no goroutine. An
// empty input returns the zero Summary.
func Summarize(values []float64) Summary {
	n := len(values)
	if n == 0 {
		return Summary{}
	}
	sortFloat64s(values)
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	var m2, m3 float64
	for _, v := range values {
		d := v - mean
		m2 += float64(d * d)
		m3 += float64(d * d * d)
	}
	s := Summary{
		N:      n,
		Mean:   mean,
		Min:    values[0],
		Max:    values[n-1],
		Median: Quantile(values, 0.5),
		P05:    Quantile(values, 0.05),
		P95:    Quantile(values, 0.95),
	}
	if n > 1 {
		s.Std = math.Sqrt(m2 / float64(n-1))
		if s.Std > 0 {
			s.Skew = (m3 / float64(n)) / math.Pow(m2/float64(n), 1.5)
		}
	}
	return s
}

// Quantile returns the q-th quantile (0..1) of sorted values using linear
// interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(n-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		return sorted[0]
	}
	if hi >= n {
		return sorted[n-1]
	}
	f := pos - float64(lo)
	return float64(sorted[lo]*(1-f)) + float64(sorted[hi]*f)
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p05=%.4g med=%.4g p95=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.P05, s.Median, s.P95, s.Max)
}

// Welford accumulates streaming mean/variance without storing samples.
type Welford struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds a value into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// Merge combines another accumulator (parallel reduction).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	d := o.mean - w.mean
	tot := n1 + n2
	w.m2 += o.m2 + d*d*n1*n2/tot
	w.mean += d * n2 / tot
	w.n += o.n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Std returns the running sample standard deviation.
func (w *Welford) Std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// Min returns the smallest value seen.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest value seen.
func (w *Welford) Max() float64 { return w.max }

// Summary converts the streaming moments into a Summary. Order statistics
// (median, quantiles) and skew cannot be recovered from the accumulator
// and are reported as NaN; callers that need them must collect the raw
// values and use Summarize.
func (w *Welford) Summary() Summary {
	nan := math.NaN()
	return Summary{
		N:      w.n,
		Mean:   w.mean,
		Std:    w.Std(),
		Min:    w.min,
		Max:    w.max,
		Median: nan,
		P05:    nan,
		P95:    nan,
		Skew:   nan,
	}
}

// Histogram is a fixed-range, uniform-bin histogram.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	under  int
	over   int
	total  int
}

// NewHistogram builds a histogram over [lo, hi) with the given bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 || hi <= lo {
		return nil, fmt.Errorf("stats: bad histogram spec [%g,%g)/%d", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add bins a value (out-of-range values are tallied separately).
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) { // guard fp edge
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of values added (including out-of-range).
func (h *Histogram) Total() int { return h.total }

// Outliers returns the under/over-range tallies.
func (h *Histogram) Outliers() (under, over int) { return h.under, h.over }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64((float64(i)+0.5)*w)
}

// Render draws the histogram with unicode bars, maxWidth columns wide,
// one line per bin: "center | ###### count".
func (h *Histogram) Render(maxWidth int) string {
	if maxWidth < 1 {
		maxWidth = 40
	}
	peak := 0
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if peak > 0 {
			bar = c * maxWidth / peak
		}
		fmt.Fprintf(&b, "%+8.3f | %-*s %d\n", h.BinCenter(i), maxWidth, strings.Repeat("#", bar), c)
	}
	if h.under > 0 || h.over > 0 {
		fmt.Fprintf(&b, "(outliers: %d below, %d above)\n", h.under, h.over)
	}
	return b.String()
}
