// SPICE-in-the-loop Monte-Carlo support: the trial function that exp's
// SPICE-MC drivers run on the mc engine, built once per stream and shared
// by every worker. Where the analytic Monte-Carlo evaluates the paper's
// closed-form tdp formula on each process-variation draw, this path
// realizes the drawn lithography sample into perturbed parasitics and
// runs the full read transient per array size — the experiment the
// paper's Tables II–IV actually rest on. Every transient runs on a pooled
// session (see ColumnBuilder.MeasureTd): a reusable netlist scratch and a
// resident SPICE engine re-targeted with spice.Engine.Reset, shared
// process-wide across workers, streams and jobs, so the hot loop
// constructs no engine and a warm read allocates nothing.
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
// option o: each invocation draws one Gaussian lithography sample from
// rng (litho.Draw — the same canonical stream the analytic
// analytic.TdpTrial consumes, so the two paths see identical draws),
// extracts the variability ratios through o's ratio model, and simulates
// the read at every size, writing the tdp penalty in percent into y[j]
// for sizes[j]. Draws whose geometry collapses (extraction error) or
// whose transient fails reject the trial by returning false.
//
// A non-nil ctrl pairs the trial for the control-variate estimator: ctrl
// is a cheap model of the tdp penalty as a function of the array size and
// the extracted variability ratios (in practice the paper's closed-form
// formula), evaluated on the *same* extracted ratios and written into
// x[j]. Because both observables share one draw and one extraction, the
// pair is maximally correlated by construction and y is bitwise the same
// with or without ctrl. With a nil ctrl, x is never written and may be
// nil.
//
// nomTd must hold the nominal read times for sizes (see NominalTds). The
// ratio model on the builder's process and capacitance model and the
// nominal parasitics are resolved here, once, so the returned function
// reads only immutable state: it is safe for concurrent use, and one
// closure serves every worker of a stream. ctrl must be safe for
// concurrent use as well.
func (b *ColumnBuilder) TrialFunc(o litho.Option, sizes []int, nomTd []float64, ctrl func(n int, r extract.Ratios) float64, bopt BuildOptions, sopt SimOptions) (func(rng *rand.Rand, y, x []float64) bool, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("sram: no array sizes requested")
	}
	if len(nomTd) != len(sizes) {
		return nil, fmt.Errorf("sram: %d nominal read times for %d sizes", len(nomTd), len(sizes))
	}
	rm, err := extract.NewRatioModel(b.Proc, o, b.Cap)
	if err != nil {
		return nil, fmt.Errorf("sram: %w", err)
	}
	nom, err := b.Nominal()
	if err != nil {
		return nil, fmt.Errorf("sram: nominal extraction: %w", err)
	}
	params := litho.Params(b.Proc, o)
	return func(rng *rand.Rand, y, x []float64) bool {
		r, err := rm.Ratios(litho.Draw(params, rng))
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
			if ctrl != nil {
				x[j] = ctrl(n, r)
			}
		}
		return true
	}, nil
}
