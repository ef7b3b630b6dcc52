// The paired (control-variate) Monte-Carlo path: every trial evaluates an
// expensive primary observable and a cheap correlated control on the same
// PRNG draw, and the engine aggregates the pair through streaming
// stats.ControlVariate accumulators — per fixed-size block, merged in
// block order, so the paired moments (and everything derived from them:
// β̂, ρ̂, the corrected mean/σ, the measured variance-reduction factor)
// are bit-identical for any worker count, exactly like the plain path.
package mc

import (
	"context"
	"fmt"
	"math/rand"

	"mpsram/internal/stats"
)

// PairedVectorFunc evaluates one paired Monte-Carlo trial: it writes
// the primary observable (e.g. SPICE-measured tdp) into y[j] and the
// control observable (e.g. the closed-form tdp formula on the same draw)
// into x[j] for each of the nobs observables. Returning false rejects the
// trial. The slices are reused across trials by the same worker and must
// not be retained.
type PairedVectorFunc func(rng *rand.Rand, y, x []float64) bool

// CVVectorResult aggregates a paired multi-observable run. The embedded
// VectorResult views the primary observable (Stats, Quantiles, Summary —
// byte-compatible with a plain run over the same primary stream), while
// CV carries the paired moments the control-variate estimators need.
type CVVectorResult struct {
	VectorResult
	// CV holds one paired accumulator per observable, merged in the same
	// deterministic block order as Stats.
	CV []stats.ControlVariate
}

// CVSummary reports the control-variate view of one observable.
type CVSummary struct {
	// Plain is the uncorrected summary of the primary observable over the
	// paired stream (streaming moments + P² order statistics).
	Plain stats.Summary
	// Mean and Std are the corrected estimates anchored on the control's
	// reference moments (muX, sigmaX).
	Mean, Std float64
	// Beta and Rho are the regression coefficient and correlation
	// estimated from the paired stream.
	Beta, Rho float64
	// VarReduction is the measured factor 1/(1−ρ̂²); EffectiveN is the
	// plain-estimator sample count the paired stream is worth.
	VarReduction float64
	EffectiveN   float64
}

// CVSummary derives the control-variate summary of observable i given the
// control's reference moments (muX, sigmaX) from a high-precision cheap
// stream.
func (r *CVVectorResult) CVSummary(i int, muX, sigmaX float64) CVSummary {
	c := &r.CV[i]
	return CVSummary{
		Plain:        r.Summary(i),
		Mean:         c.MeanCorrected(muX),
		Std:          c.StdCorrected(sigmaX),
		Beta:         c.Beta(),
		Rho:          c.Corr(),
		VarReduction: c.VarianceReduction(),
		EffectiveN:   c.EffectiveN(),
	}
}

// RunVectorPaired executes cfg.Samples paired trials of f, each producing
// nobs (primary, control) observable pairs, and streams them into
// per-observable ControlVariate accumulators plus the plain per-primary
// statistics of RunVector. Determinism matches the plain engine: trial i
// reseeds from (cfg.Seed, i) and fixed-size blocks merge in block order,
// so results are bit-identical across worker counts. As with RunVector,
// every worker calls the one f. The paired path is streaming-only:
// cfg.Collect is rejected.
func RunVectorPaired(ctx context.Context, cfg Config, nobs int, f PairedVectorFunc) (*CVVectorResult, error) {
	if cfg.Collect {
		return nil, fmt.Errorf("mc: the paired path is streaming-only (Collect unsupported)")
	}
	st, err := runStream(ctx, cfg, streamPaired, nobs, func() evalFunc {
		y := make([]float64, nobs)
		x := make([]float64, nobs)
		// Worker scratch, as in RunVector: a block lands in its slot once.
		cv := make([]stats.ControlVariate, nobs)
		quant := make([]QuantileSketch, nobs)
		return func(ctx context.Context, rng *rand.Rand, rec *StreamRecord, lo, hi int) bool {
			for j := range cv {
				cv[j] = stats.ControlVariate{}
				quant[j] = newQuantileSketch()
			}
			rejected, done := 0, ctx.Done()
			for i := lo; i < hi; i++ {
				select {
				case <-done:
					return false
				default:
				}
				rng.Seed(trialSeed(cfg.Seed, i))
				if !f(rng, y, x) {
					rejected++
					continue
				}
				for j := range cv {
					cv[j].Add(y[j], x[j])
					quant[j].P05.Add(y[j])
					quant[j].Median.Add(y[j])
					quant[j].P95.Add(y[j])
				}
			}
			copy(rec.CV, cv)
			copy(rec.Quant, quant)
			rec.Rejected = rejected
			return true
		}
	})
	if err != nil {
		return nil, err
	}
	return foldPaired(st), nil
}
