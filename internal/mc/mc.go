// Package mc is the Monte-Carlo engine of paper Section III-B: it runs a
// caller's trial function once per sample and aggregates the vector of
// observables each trial writes into distributions (Fig. 5) and standard
// deviations (Table IV). A trial lives beside its model —
// analytic.TdpTrial feeds a lithography draw through the closed-form tdp
// formula, sram.ColumnBuilder.TrialFunc through full read transients —
// and exp runs it with RunVector, or RunVectorPaired for a trial that
// pairs each observable with a control. The engine depends on stats
// alone.
//
// Sampling is deterministic for a given seed and independent of the
// worker count: every sample index derives its own PRNG stream, so
// parallel runs are exactly reproducible. A trial writes a vector of
// observables — one draw can feed the tdp formula at every array size at
// once — which is how the Table IV surface shares a single sample stream
// per option instead of resampling per cell.
package mc

import "runtime"

// Config tunes a Monte-Carlo run. Workers sets only the parallelism:
// every worker calls the stream's one trial function, so results never
// depend on it.
type Config struct {
	Samples int
	Seed    int64
	Workers int // 0 = GOMAXPROCS
	// Collect retains every accepted observation (per observable) for
	// exact quantiles and histograms. Off, the engine keeps only the
	// streaming Welford moments — no O(Samples) buffer.
	Collect bool
	// Progress, if non-nil, is called as trial blocks complete with the
	// number of finished trials and the total. Calls are serialized by
	// the engine and done is strictly increasing within one run, so the
	// callback needs no locking of its own.
	Progress func(done, total int)
	// Shard, if non-nil, is the capture every engine run under this
	// config executes on (see ShardRun). A shard's capture runs only its
	// contiguous block range and keeps the per-block partial aggregates
	// for the artifact; the result it returns is always empty (nothing
	// accepted or rejected, never an error for it), because the
	// authoritative result comes from reducing the artifacts. The
	// reducer's capture (NewReplay) executes nothing and returns each
	// recorded stream folded whole. Nil runs each stream whole as a fresh
	// shard 0 of 1, kept in memory and folded on the spot: the direct
	// run is the same capture.
	Shard *ShardRun
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
