// Package mc implements the Monte-Carlo engine of paper Section III-B:
// Gaussian sampling of the per-option process-variation parameters,
// extraction of the resulting RCbl variation ratios, evaluation of the
// analytical tdp formula, and aggregation into distributions (Fig. 5) and
// standard deviations (Table IV).
//
// Sampling is deterministic for a given seed and independent of the
// worker count: every sample index derives its own PRNG stream, so
// parallel runs are exactly reproducible. The engine in engine.go streams
// a vector of observables per trial — one litho+extract draw can feed the
// tdp formula at every array size at once — which is how the Table IV
// surface shares a single sample stream per option instead of resampling
// per cell.
package mc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"mpsram/internal/analytic"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

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

// TdpVector returns the multi-observable trial function behind the shared
// sample stream: one canonical litho.Draw of option o's parameters and
// one ratio extraction per trial, evaluated through the analytical tdp
// formula at every array size in sizes. Draws whose geometry collapses
// reject the trial. The parameters and the ratio model are built here,
// once per stream, so a trial allocates nothing; a nil capacitance model
// or an unrealizable nominal window is reported here, before any trial.
func TdpVector(p tech.Process, o litho.Option, m analytic.Params, cm extract.CapModel, sizes []int) (VectorFunc, error) {
	rm, err := extract.NewRatioModel(p, o, cm)
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	params := litho.Params(p, o)
	return func(rng *rand.Rand, out []float64) bool {
		r, err := rm.Ratios(litho.Draw(params, rng))
		if err != nil {
			return false
		}
		for j, n := range sizes {
			out[j] = m.TdpPct(n, r.Rvar, r.Cvar)
		}
		return true
	}, nil
}

// TdpAcrossSizes runs one Monte-Carlo stream for option o and evaluates
// the tdp penalty at every array size in sizes from each draw — the
// litho+extract pipeline runs once per trial no matter how many sizes are
// requested. Observable j of the result corresponds to sizes[j].
func TdpAcrossSizes(ctx context.Context, p tech.Process, o litho.Option, m analytic.Params, cm extract.CapModel, sizes []int, cfg Config) (*VectorResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("mc: no array sizes requested")
	}
	f, err := TdpVector(p, o, m, cm, sizes)
	if err != nil {
		return nil, err
	}
	return RunVector(ctx, cfg, len(sizes), f)
}

// SigmaSweepRow is one Table IV row: an option/overlay configuration and
// the resulting tdp standard deviation.
type SigmaSweepRow struct {
	Option litho.Option
	OL     float64 // LE3 overlay 3σ budget (0 for SADP/EUV)
	Sigma  float64 // std of tdp in percentage points
	Mean   float64
}

// SigmaCell is the tdp spread at one array size within a surface row.
type SigmaCell struct {
	N     int
	Sigma float64 // std of tdp in percentage points
	Mean  float64
}

// SigmaSurfaceRow is one option/overlay configuration of the extended
// Table IV: the tdp spread at every requested array size, all computed
// from one shared sample stream.
type SigmaSurfaceRow struct {
	Option litho.Option
	OL     float64 // LE3 overlay 3σ budget (0 for SADP/EUV)
	Cells  []SigmaCell
}

// SigmaSurface computes the tdp σ for LE3 at each overlay budget plus
// SADP and EUV, across every array size in sizes. Each option/overlay
// configuration runs exactly one Monte-Carlo stream: every draw's
// extracted ratios feed the tdp formula at all sizes, so the litho and
// extraction cost is independent of len(sizes).
//
// The cells report exact (collected, sort-based) statistics so that the
// Table IV numbers stay bit-identical to the seed engine for the same
// (Seed, Samples); the streaming Welford moments agree to ~1e-12 and
// remain available through RunVector with Collect off.
func SigmaSurface(ctx context.Context, p tech.Process, m analytic.Params, cm extract.CapModel, sizes []int, olBudgets []float64, cfg Config) ([]SigmaSurfaceRow, error) {
	cfg.Collect = true
	var rows []SigmaSurfaceRow
	run := func(p tech.Process, o litho.Option, ol float64) error {
		vr, err := TdpAcrossSizes(ctx, p, o, m, cm, sizes, cfg)
		if err != nil {
			return err
		}
		cells := make([]SigmaCell, len(sizes))
		for j, n := range sizes {
			s := vr.Summary(j)
			cells[j] = SigmaCell{N: n, Sigma: s.Std, Mean: s.Mean}
		}
		rows = append(rows, SigmaSurfaceRow{Option: o, OL: ol, Cells: cells})
		return nil
	}
	for _, ol := range olBudgets {
		if err := run(p.WithOL(ol), litho.LE3, ol); err != nil {
			return nil, fmt.Errorf("mc: LE3 @OL=%g: %w", ol, err)
		}
	}
	for _, o := range []litho.Option{litho.SADP, litho.EUV} {
		if err := run(p, o, 0); err != nil {
			return nil, fmt.Errorf("mc: %v: %w", o, err)
		}
	}
	return rows, nil
}

// ProcessSurface is one node's extended Table IV: the per-option/overlay
// tdp σ surface computed on that process.
type ProcessSurface struct {
	Process string
	Rows    []SigmaSurfaceRow
}
