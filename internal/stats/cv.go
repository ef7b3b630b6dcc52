// Control-variate accumulation: streaming paired moments for an expensive
// primary observable Y and a cheap, correlated control X evaluated on the
// same random draws. The classical regression estimator re-expresses the
// primary's variance as β²·var(X) + var(Y − βX): when the control's
// moments are known to much higher precision than the paired budget
// affords (a separate large cheap stream), only the small residual term
// still carries the expensive stream's sampling noise — a variance
// reduction of roughly 1/(1−ρ²).
package stats

import "math"

// ControlVariate accumulates streaming paired moments of a primary
// observable y and a control observable x: the per-variable Welford
// moments plus the co-moment Σ(yᵢ−ȳ)(xᵢ−x̄). Like Welford and P2 it is
// mergeable, and merging per-block accumulators in a fixed block order
// yields bit-identical results for any worker count.
type ControlVariate struct {
	y, x Welford
	cxy  float64 // co-moment Σ(yᵢ−ȳ)(xᵢ−x̄)
}

// Add folds one paired observation (primary y, control x).
func (c *ControlVariate) Add(y, x float64) {
	dy := y - c.y.mean // deviation from the pre-update primary mean
	c.y.Add(y)
	c.x.Add(x)
	c.cxy += float64(dy * (x - c.x.mean))
}

// Merge combines another accumulator (parallel reduction). The co-moment
// follows the same pairwise update as Welford's m2, with the cross term
// d_y·d_x·n₁n₂/(n₁+n₂).
func (c *ControlVariate) Merge(o ControlVariate) {
	if o.y.n == 0 {
		return
	}
	if c.y.n == 0 {
		*c = o
		return
	}
	n1, n2 := float64(c.y.n), float64(o.y.n)
	dy := o.y.mean - c.y.mean
	dx := o.x.mean - c.x.mean
	c.cxy += o.cxy + dy*dx*n1*n2/(n1+n2)
	c.y.Merge(o.y)
	c.x.Merge(o.x)
}

// N returns the paired sample count.
func (c *ControlVariate) N() int { return c.y.n }

// Primary returns the accumulated moments of the primary observable.
func (c *ControlVariate) Primary() Welford { return c.y }

// Control returns the accumulated moments of the control observable.
func (c *ControlVariate) Control() Welford { return c.x }

// Cov returns the sample covariance (n−1 denominator).
func (c *ControlVariate) Cov() float64 {
	if c.y.n < 2 {
		return 0
	}
	return c.cxy / float64(c.y.n-1)
}

// Beta returns the regression coefficient β̂ = cov(y,x)/var(x), the
// optimal control-variate multiplier estimated from the paired stream.
// It is 0 while the control has no spread (β is then unidentifiable and
// the corrected estimators degrade gracefully to the plain ones).
func (c *ControlVariate) Beta() float64 {
	if c.y.n < 2 || c.x.m2 == 0 {
		return 0
	}
	return c.cxy / c.x.m2
}

// Corr returns the sample correlation ρ̂ between primary and control
// (0 when either is degenerate).
func (c *ControlVariate) Corr() float64 {
	if c.y.n < 2 || c.y.m2 == 0 || c.x.m2 == 0 {
		return 0
	}
	return c.cxy / math.Sqrt(c.y.m2*c.x.m2)
}

// ResidualVar returns the sample variance of the regression residual
// y − β̂x, i.e. (1−ρ̂²)·var(y) — the part of the primary's variance the
// control cannot explain. Clamped at 0 against floating-point cancellation.
func (c *ControlVariate) ResidualVar() float64 {
	if c.y.n < 2 {
		return 0
	}
	m2res := c.y.m2
	if c.x.m2 > 0 {
		m2res -= c.cxy * c.cxy / c.x.m2
	}
	if m2res < 0 {
		m2res = 0
	}
	return m2res / float64(c.y.n-1)
}

// VarianceReduction returns the measured control-variate gain
// 1/(1−ρ̂²): the factor by which the paired estimator shrinks the
// primary-mean sampling variance relative to the plain estimator at the
// same budget. 1 when the pair is uncorrelated or degenerate; +Inf for a
// perfectly correlated pair.
func (c *ControlVariate) VarianceReduction() float64 {
	r := c.Corr()
	d := 1 - float64(r*r)
	if d <= 0 {
		return math.Inf(1)
	}
	return 1 / d
}

// EffectiveN returns the plain-estimator sample count this paired stream
// is worth: N · VarianceReduction.
func (c *ControlVariate) EffectiveN() float64 {
	return float64(c.N()) * c.VarianceReduction()
}

// MeanCorrected returns the control-variate-corrected mean
// ȳ − β̂(x̄ − μx), where μx is the control's expectation known from a
// high-precision reference (a separate cheap stream).
func (c *ControlVariate) MeanCorrected(muX float64) float64 {
	return c.y.mean - float64(c.Beta()*(c.x.mean-muX))
}

// StdCorrected returns the control-variate-corrected standard deviation
// of the primary, √(β̂²σx² + var(y−β̂x)), where sigmaX is the control's
// standard deviation known from a high-precision reference. The dominant
// β²σx² term inherits the reference's precision; only the small residual
// term still carries the paired stream's sampling noise.
func (c *ControlVariate) StdCorrected(sigmaX float64) float64 {
	b := c.Beta()
	return math.Sqrt(float64(b*b*sigmaX*sigmaX) + c.ResidualVar())
}
