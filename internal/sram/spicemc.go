// SPICE-in-the-loop Monte-Carlo support: the per-worker trial function
// behind mc.SpiceTdpAcrossSizes. Where the analytic Monte-Carlo evaluates
// the paper's closed-form tdp formula on each process-variation draw, this
// path realizes the drawn lithography sample into perturbed parasitics and
// runs the full read transient per array size — the experiment the paper's
// Tables II–IV actually rest on. Every transient runs on a pooled session
// (see ColumnBuilder.MeasureTd): a reusable netlist scratch and a resident
// SPICE engine re-targeted with spice.Engine.Reset, shared process-wide
// across workers, streams and jobs, so the hot loop constructs no engine
// and a warm read allocates nothing.
package sram

import (
	"fmt"
	"math/rand"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
)

// NominalTds simulates the nominal read at every size, the denominators of
// the per-trial tdp observables. Deterministic — callers compute it once
// and share it read-only across workers.
func (b *ColumnBuilder) NominalTds(sizes []int, bopt BuildOptions, sopt SimOptions) ([]float64, error) {
	nom, err := b.Nominal()
	if err != nil {
		return nil, err
	}
	tds := make([]float64, len(sizes))
	for j, n := range sizes {
		td, err := b.MeasureTd(n, nom, bopt, sopt)
		if err != nil {
			return nil, fmt.Errorf("sram: nominal td at n=%d: %w", n, err)
		}
		if td <= 0 {
			return nil, fmt.Errorf("sram: non-positive nominal td %g at n=%d", td, n)
		}
		tds[j] = td
	}
	return tds, nil
}

// TrialFunc returns the SPICE-in-the-loop Monte-Carlo trial function for
// rm's option: each invocation draws one Gaussian lithography sample from
// rng (litho.Draw — the same canonical stream the analytic mc.TdpVector
// consumes, so the two paths see identical draws), extracts the
// variability ratios through rm, and simulates the read at every size,
// writing the tdp penalty in percent into out[j] for sizes[j]. Draws whose
// geometry collapses (extraction error) or whose transient fails reject
// the trial by returning false.
//
// rm must be built on the builder's process and capacitance model; it is
// never modified, so the caller builds it once per stream and hands it to
// every worker. nomTd must hold the nominal read times for sizes (see
// NominalTds). The returned closure reads through this builder's memos,
// so it inherits the builder's concurrency contract: one builder per
// worker.
func (b *ColumnBuilder) TrialFunc(rm extract.RatioModel, sizes []int, nomTd []float64, bopt BuildOptions, sopt SimOptions) func(*rand.Rand, []float64) bool {
	params := litho.Params(b.Proc, rm.Option())
	return func(rng *rand.Rand, out []float64) bool {
		// The model directly, not the builder memo: continuous random
		// samples never repeat, so memoizing them would only grow the map.
		r, err := rm.Ratios(litho.Draw(params, rng))
		if err != nil {
			return false
		}
		nom, err := b.Nominal()
		if err != nil {
			return false
		}
		cp := nom.Scale(r)
		for j, n := range sizes {
			td, err := b.MeasureTd(n, cp, bopt, sopt)
			if err != nil {
				return false
			}
			out[j] = (td/nomTd[j] - 1) * 100
		}
		return true
	}
}

// PairedTrialFunc is TrialFunc's control-variate companion: the same
// draw → extract → transient pipeline, but each trial additionally
// evaluates ctrl — a cheap model of the tdp penalty as a function of the
// array size and the extracted variability ratios (in practice the
// paper's closed-form formula) — on the *same* extracted ratios, writing
// the SPICE-measured penalty into y[j] and the control into x[j]. Because
// both observables share one draw and one extraction, the pair is
// maximally correlated by construction and the SPICE stream is bitwise
// identical to TrialFunc's for the same (Seed, trial).
//
// ctrl must be deterministic and reentrant: one closure is shared across
// workers (it closes over read-only model parameters, not builders).
func (b *ColumnBuilder) PairedTrialFunc(rm extract.RatioModel, sizes []int, nomTd []float64, ctrl func(n int, r extract.Ratios) float64, bopt BuildOptions, sopt SimOptions) func(*rand.Rand, []float64, []float64) bool {
	params := litho.Params(b.Proc, rm.Option())
	return func(rng *rand.Rand, y, x []float64) bool {
		r, err := rm.Ratios(litho.Draw(params, rng))
		if err != nil {
			return false
		}
		nom, err := b.Nominal()
		if err != nil {
			return false
		}
		cp := nom.Scale(r)
		for j, n := range sizes {
			td, err := b.MeasureTd(n, cp, bopt, sopt)
			if err != nil {
				return false
			}
			y[j] = (td/nomTd[j] - 1) * 100
			x[j] = ctrl(n, r)
		}
		return true
	}
}
