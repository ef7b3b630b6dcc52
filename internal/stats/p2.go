package stats

import (
	"fmt"
	"math"
	"sort"
)

// P2 is the Jain–Chlamtac P² streaming quantile estimator ("The P²
// algorithm for dynamic calculation of quantiles and histograms without
// storing observations", CACM 1985): five markers track the running
// minimum, the target quantile, the quantile's half-way neighbours and the
// running maximum, adjusted per observation with parabolic interpolation.
// Memory is O(1) regardless of the stream length, which is what lets the
// Monte-Carlo engine report approximate median/P95 when value collection
// is off.
//
// The zero P2 is not ready for use; construct with NewP2.
type P2 struct {
	p   float64    // target quantile in (0, 1)
	n   int        // observations folded in
	q   [5]float64 // marker heights; q[0..n-1] hold raw values while n < 5
	pos [5]float64 // marker positions (1-based cumulative counts)
	des [5]float64 // desired marker positions
	inc [5]float64 // per-observation desired-position increments
}

// NewP2 returns an estimator for the p-th quantile (0 < p < 1).
func NewP2(p float64) P2 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("stats: P2 quantile %g out of (0,1)", p))
	}
	return P2{
		p:   p,
		des: [5]float64{1, 1 + float64(2*p), 1 + float64(4*p), 3 + float64(2*p), 5},
		inc: [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

// P returns the target quantile.
func (e *P2) P() float64 { return e.p }

// N returns the number of observations folded in.
func (e *P2) N() int { return e.n }

// Add folds one observation into the sketch.
func (e *P2) Add(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
			}
		}
		return
	}
	// Locate the cell and update the extreme markers.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	e.n++
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.des {
		e.des[i] += e.inc[i]
	}
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.des[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := math.Copysign(1, d)
			if q := e.parabolic(i, s); e.q[i-1] < q && q < e.q[i+1] {
				e.q[i] = q
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (e *P2) parabolic(i int, d float64) float64 {
	num1 := (e.pos[i] - e.pos[i-1] + d) * (e.q[i+1] - e.q[i]) / (e.pos[i+1] - e.pos[i])
	num2 := (e.pos[i+1] - e.pos[i] - d) * (e.q[i] - e.q[i-1]) / (e.pos[i] - e.pos[i-1])
	return e.q[i] + d*(num1+num2)/(e.pos[i+1]-e.pos[i-1])
}

// linear is the fallback height prediction.
func (e *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Quantile returns the current estimate: the centre marker once the sketch
// has formed, the exact sample quantile while fewer than five observations
// have been seen, and NaN for an empty sketch.
func (e *P2) Quantile() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n < 5 {
		v := append([]float64(nil), e.q[:e.n]...)
		sort.Float64s(v)
		return Quantile(v, e.p)
	}
	return e.q[2]
}

// knots returns the sketch as a piecewise-linear empirical CDF: heights xs
// (non-decreasing) with cumulative fractions fs in [0, 1].
func (e *P2) knots() (xs, fs []float64) {
	switch {
	case e.n == 0:
		return nil, nil
	case e.n == 1:
		return []float64{e.q[0], e.q[0]}, []float64{0, 1}
	case e.n < 5:
		v := append([]float64(nil), e.q[:e.n]...)
		sort.Float64s(v)
		fs = make([]float64, len(v))
		for i := range v {
			fs[i] = float64(i) / float64(len(v)-1)
		}
		return v, fs
	}
	xs = append([]float64(nil), e.q[:]...)
	fs = make([]float64, 5)
	for i := range fs {
		fs[i] = (e.pos[i] - 1) / (float64(e.n) - 1)
	}
	return xs, fs
}

// cdfAt evaluates a piecewise-linear CDF at x.
func cdfAt(xs, fs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if x <= xs[0] {
		if x == xs[0] {
			return fs[0]
		}
		return 0
	}
	last := len(xs) - 1
	if x >= xs[last] {
		return 1
	}
	j := sort.SearchFloat64s(xs, x)
	// xs[j-1] < x ≤ xs[j] (x < xs[last], so j ≤ last).
	if xs[j] == x {
		return fs[j]
	}
	t := (x - xs[j-1]) / (xs[j] - xs[j-1])
	return fs[j-1] + float64(t*(fs[j]-fs[j-1]))
}

// invertCDF returns the smallest x with CDF(x) ≥ t on the knot list.
func invertCDF(xs, fs []float64, t float64) float64 {
	for j := range fs {
		if fs[j] >= t {
			if j == 0 || fs[j] == fs[j-1] {
				return xs[j]
			}
			u := (t - fs[j-1]) / (fs[j] - fs[j-1])
			return xs[j-1] + float64(u*(xs[j]-xs[j-1]))
		}
	}
	return xs[len(xs)-1]
}

// Merge folds another sketch for the same quantile into e. The merge is
// approximate but deterministic: both sketches are read as weighted
// piecewise-linear empirical CDFs, combined in proportion to their
// observation counts, and the merged CDF is re-sampled at the five
// canonical marker fractions. The Monte-Carlo engine relies on the
// determinism — per-block sketches merged in fixed block order give
// quantile estimates that are bit-identical across worker counts.
func (e *P2) Merge(o P2) {
	if o.p != e.p {
		panic(fmt.Sprintf("stats: merging P2 sketches for quantiles %g and %g", e.p, o.p))
	}
	if o.n == 0 {
		return
	}
	if e.n == 0 {
		*e = o
		return
	}
	if e.n+o.n <= 5 {
		// Both below formation: keep exact values.
		var merged P2 = NewP2(e.p)
		for _, v := range e.q[:e.n] {
			merged.Add(v)
		}
		for _, v := range o.q[:o.n] {
			merged.Add(v)
		}
		*e = merged
		return
	}
	ax, af := e.knots()
	bx, bf := o.knots()
	// Union of knot heights, deduplicated.
	union := make([]float64, 0, len(ax)+len(bx))
	union = append(union, ax...)
	union = append(union, bx...)
	sort.Float64s(union)
	xs := union[:0]
	for i, x := range union {
		if i == 0 || x != xs[len(xs)-1] {
			xs = append(xs, x)
		}
	}
	// Combined CDF, weighted by observation counts.
	wa := float64(e.n) / float64(e.n+o.n)
	wb := float64(o.n) / float64(e.n+o.n)
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(wa*cdfAt(ax, af, x)) + float64(wb*cdfAt(bx, bf, x))
	}
	// Re-sample the five canonical markers from the merged CDF.
	n := e.n + o.n
	var q, pos [5]float64
	for i, frac := range e.inc {
		q[i] = invertCDF(xs, fs, frac)
		pos[i] = 1 + float64(frac*float64(n-1))
	}
	q[0] = math.Min(ax[0], bx[0])
	q[4] = math.Max(ax[len(ax)-1], bx[len(bx)-1])
	// Desired positions restart at their canonical values for a formed
	// sketch of n observations, so further Adds keep working.
	init := NewP2(e.p).des
	var des [5]float64
	for i := range des {
		des[i] = init[i] + float64(e.inc[i]*float64(n-5))
	}
	e.n = n
	e.q = q
	e.pos = pos
	e.des = des
}
