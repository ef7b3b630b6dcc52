// The tdp σ surface behind Table IV and its extensions (table4, table4x,
// table4xp, nodes): per option/overlay configuration one analytic
// Monte-Carlo stream, every draw evaluated at each requested array size.
package exp

import (
	"fmt"

	"mpsram/internal/analytic"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/tech"
)

// SigmaCell is the tdp spread at one array size within a surface row.
type SigmaCell struct {
	N     int
	Sigma float64 // std of tdp in percentage points
	Mean  float64
}

// SigmaSurfaceRow is one option/overlay configuration of Table IV: the
// tdp spread at every requested array size, all computed from one shared
// sample stream.
type SigmaSurfaceRow struct {
	Option litho.Option
	OL     float64 // LE3 overlay 3σ budget (0 for SADP/EUV)
	Cells  []SigmaCell
}

// ProcessSurface is one node's extended Table IV: the per-option/overlay
// tdp σ surface computed on that process.
type ProcessSurface struct {
	Process string
	Rows    []SigmaSurfaceRow
}

// sigmaSurface computes the tdp σ on process p with formula parameters m
// for LE3 at each of PaperOLBudgets plus SADP and EUV, across every array
// size in sizes, issuing the streams in that order. Each option/overlay
// configuration runs exactly one Monte-Carlo stream: every draw's
// extracted ratios feed the tdp formula at all sizes, so the litho and
// extraction cost is independent of len(sizes).
//
// The cells report exact (collected, sort-based) statistics so that the
// Table IV numbers stay bit-identical to the seed engine for the same
// (Seed, Samples); the streaming Welford moments agree to ~1e-12.
func (e Env) sigmaSurface(p tech.Process, m analytic.Params, sizes []int) ([]SigmaSurfaceRow, error) {
	cfg := e.MC
	cfg.Collect = true
	var rows []SigmaSurfaceRow
	run := func(p tech.Process, o litho.Option, ol float64) error {
		trial, err := analytic.TdpTrial(p, o, m, e.Cap, sizes)
		if err != nil {
			return err
		}
		vr, err := mc.RunVector(e.ctx(), cfg, len(sizes), trial)
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
	for _, ol := range PaperOLBudgets {
		if err := run(p.WithOL(ol), litho.LE3, ol); err != nil {
			return nil, fmt.Errorf("LE3 @OL=%g: %w", ol, err)
		}
	}
	for _, o := range []litho.Option{litho.SADP, litho.EUV} {
		if err := run(p, o, 0); err != nil {
			return nil, fmt.Errorf("%v: %w", o, err)
		}
	}
	return rows, nil
}
