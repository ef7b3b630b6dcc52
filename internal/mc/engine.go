// The streaming multi-observable Monte-Carlo engine. One pass over N
// samples evaluates a vector of observables per trial (for example the tdp
// penalty at every DOE array size from a single process-variation draw),
// aggregating each observable with online Welford statistics — plus P²
// quantile sketches for approximate median/P05/P95 — so nothing is
// buffered unless the caller asks for the raw values (histograms, exact
// quantiles).
//
// Determinism: trial i always derives its PRNG stream from (Seed, i), and
// trials are aggregated in fixed-size blocks that are merged in block
// order, so every statistic is bit-identical regardless of the worker
// count. Workers own one reusable PRNG and one scratch vector and
// accumulator set each; a block's collected values go straight into its
// window of the stream's value array, and its accumulators into its slot
// once the block is done. The scheduler allocates those arrays once per
// stream (one per accumulator kind, one for collected values), so nothing
// is allocated per block or per trial. The trial function is one
// closure, built once per stream and shared by every worker, so a worker
// holds no other state and any worker can run any trial. The analytic
// trial is allocation-free as well: analytic.TdpTrial builds the
// stream's parameters and ratio model once, and this package's
// TestTdpVectorTrialAllocationFree pins a warm trial at zero allocations
// on every option.
package mc

import (
	"context"
	"math/rand"

	"mpsram/internal/stats"
)

// blockSize is the number of trials aggregated sequentially into one
// Welford accumulator before the in-order merge. It is a fixed constant —
// never derived from the worker count — because the merge tree must be
// identical for any parallelism for results to stay bit-identical.
const blockSize = 256

// VectorFunc evaluates one Monte-Carlo trial with the given PRNG, writing
// one value per observable into out (whose length is the observable count
// passed to RunVector). It returns false to reject the trial (e.g.
// collapsed geometry), in which case out is ignored. The out slice is
// reused across trials by the same worker and must not be retained.
type VectorFunc func(rng *rand.Rand, out []float64) bool

// QuantileSketch bundles the streaming P² order-statistic estimators the
// engine maintains per observable when values are not collected.
type QuantileSketch struct {
	P05, Median, P95 stats.P2
}

// newQuantileSketch returns a zeroed sketch triple.
func newQuantileSketch() QuantileSketch {
	return QuantileSketch{P05: stats.NewP2(0.05), Median: stats.NewP2(0.5), P95: stats.NewP2(0.95)}
}

// merge folds another sketch triple in (deterministic given a fixed merge
// order).
func (q *QuantileSketch) merge(o QuantileSketch) {
	q.P05.Merge(o.P05)
	q.Median.Merge(o.Median)
	q.P95.Merge(o.P95)
}

// VectorResult aggregates a multi-observable run.
type VectorResult struct {
	// Stats holds one streaming accumulator per observable, merged in
	// deterministic block order (bit-identical across worker counts).
	Stats []stats.Welford
	// Quantiles holds one streaming P² sketch triple (P05/median/P95)
	// per observable, maintained only when Config.Collect is off (exact
	// order statistics are available from Values otherwise). Per-block
	// sketches are merged in the same deterministic block order as
	// Stats, so the approximate quantiles are likewise bit-identical
	// across worker counts.
	Quantiles []QuantileSketch
	// Values holds the accepted observations per observable in trial
	// order. It is nil unless Config.Collect was set. Each slice is
	// capacity-capped, so appending to one never writes into another;
	// a single observable's slice may be the stream's own value array,
	// which the fold compacts in place instead of copying.
	Values [][]float64
	// Rejected counts trials for which the VectorFunc returned false.
	Rejected int
}

// Accepted returns the number of accepted trials.
func (r *VectorResult) Accepted() int { return r.Stats[0].N() }

// Summary returns descriptive statistics for observable i: exact
// (sort-based, including quantiles and skew) when values were collected,
// otherwise the streaming moments with approximate P² order statistics
// (median, P05, P95) and skew set to NaN. Values[i] is left untouched —
// Summarize sorts its argument in place, so Summary hands it a copy —
// preserving the documented trial order and cross-observable pairing.
func (r *VectorResult) Summary(i int) stats.Summary {
	if r.Values != nil {
		return stats.Summarize(append([]float64(nil), r.Values[i]...))
	}
	s := r.Stats[i].Summary()
	if r.Quantiles != nil {
		q := &r.Quantiles[i]
		s.P05 = q.P05.Quantile()
		s.Median = q.Median.Quantile()
		s.P95 = q.P95.Quantile()
	}
	return s
}

// trialSeed derives the per-trial PRNG seed. This is the seed engine's
// exact derivation — splitmix-style odd-constant multiply of the trial
// index — and must never change: results for a given (Seed, Samples) are a
// compatibility surface.
func trialSeed(seed int64, i int) int64 {
	return seed ^ int64(uint64(i+1)*0x9E3779B97F4A7C15)
}

// RunVector executes cfg.Samples trials of f, each producing nobs
// observables, and streams them into per-observable Welford accumulators.
// Each trial i reseeds the worker's PRNG from (cfg.Seed, i), making
// results bit-identical across worker counts. Every worker calls the one
// f, so f must be safe for concurrent use. The context cancels the run
// between blocks; cfg.Progress, if set, is invoked as blocks complete.
func RunVector(ctx context.Context, cfg Config, nobs int, f VectorFunc) (*VectorResult, error) {
	st, err := runStream(ctx, cfg, streamPlain, nobs, func() evalFunc {
		out := make([]float64, nobs)
		// A block accumulates in worker scratch and lands in its slot once
		// it is done: neighbouring slots share cache lines, which two
		// workers writing them on every trial would fight over.
		agg := make([]stats.Welford, nobs)
		var quant []QuantileSketch
		if !cfg.Collect {
			quant = make([]QuantileSketch, nobs)
		}
		return func(ctx context.Context, rng *rand.Rand, rec *StreamRecord, lo, hi int) bool {
			for j := range agg {
				agg[j] = stats.Welford{}
			}
			for j := range quant {
				quant[j] = newQuantileSketch()
			}
			vals, rejected := rec.Values, 0
			// Also honor cancellation inside a block: a
			// SPICE-in-the-loop run at a sub-block budget would
			// otherwise only notice SIGINT when it finishes.
			// Completed runs are unaffected — an abandoned (torn)
			// block is never emitted, counted or checkpointed. A
			// non-blocking receive on Done takes no lock, where
			// ctx.Err locks the context on every trial (Background's
			// nil channel never fires).
			done := ctx.Done()
			for i := lo; i < hi; i++ {
				select {
				case <-done:
					return false
				default:
				}
				rng.Seed(trialSeed(cfg.Seed, i))
				if !f(rng, out) {
					rejected++
					continue
				}
				for j := range agg {
					agg[j].Add(out[j])
				}
				for j := range quant {
					quant[j].P05.Add(out[j])
					quant[j].Median.Add(out[j])
					quant[j].P95.Add(out[j])
				}
				if cfg.Collect {
					vals = append(vals, out...)
				}
			}
			copy(rec.Agg, agg)
			copy(rec.Quant, quant)
			rec.Values, rec.Rejected = vals, rejected
			return true
		}
	})
	if err != nil {
		return nil, err
	}
	return foldPlain(st), nil
}
