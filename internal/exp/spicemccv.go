// The control-variate SPICE-MC driver behind the `-cv` estimator mode of
// mcspice/mcspicex and the cross-node mcspicenodes workload: every trial
// pairs the full read transients with the closed-form tdp formula on the
// same extracted ratios, and a separate cheap analytic stream pins the
// control's moments to reference precision. The corrected σ then reads
// β̂²σ²_ref + residual, so only the small formula-unexplained remainder
// still carries the expensive stream's sampling noise — the measured
// variance-reduction factor 1/(1−ρ̂²) is reported per cell.
package exp

import (
	"fmt"
	"strings"

	"mpsram/internal/analytic"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/report"
	"mpsram/internal/stats"
)

// CVRefSamples sizes the analytic reference stream that anchors the
// control's moments (μx, σx): 50× the paired budget, clamped to
// [400, 10000]. The reference consumes only draw + extraction + formula
// per trial — at the default 10 000 it matches the analytic workloads'
// full budget, so the reference σ agrees with the published analytic
// tables — and its cost is negligible next to one read transient.
func CVRefSamples(samples int) int {
	ref := 50 * samples
	if ref > 10000 {
		ref = 10000
	}
	if ref < 400 {
		ref = 400
	}
	return ref
}

// SpiceMCCVRow is one (option, size) cell of the control-variate
// SPICE-in-the-loop Monte-Carlo.
type SpiceMCCVRow struct {
	Option litho.Option
	N      int
	// Spice is the uncorrected summary of the SPICE-measured tdp over the
	// paired stream (bit-identical to the plain estimator's at the same
	// Seed/Samples).
	Spice stats.Summary
	// CVMean/CVStd are the corrected estimates anchored on the analytic
	// reference moments.
	CVMean, CVStd float64
	// Beta and Rho are the regression coefficient and SPICE↔formula
	// correlation measured from the paired stream.
	Beta, Rho float64
	// VarReduction is the measured factor 1/(1−ρ̂²); EffectiveN the
	// plain-estimator draw count the paired stream is worth.
	VarReduction float64
	EffectiveN   float64
	// RefMean/RefStd are the analytic control's reference moments from
	// the RefSamples-draw cheap stream.
	RefMean, RefStd float64
	RefSamples      int
	Rejected        int
}

// SpiceMCCV runs the control-variate SPICE-in-the-loop Monte-Carlo per
// patterning option at the given array sizes: one paired SPICE+formula
// stream at the environment's budget plus one analytic reference stream
// at CVRefSamples. Nominal geometry is shared across options like the
// plain driver's, and both streams are bit-identical for any worker
// count.
func SpiceMCCV(e Env, sizes []int) ([]SpiceMCCVRow, error) {
	seed, nomTd, m, err := e.spiceSetup(sizes, true)
	if err != nil {
		return nil, fmt.Errorf("spice mc cv: %w", err)
	}
	refCfg := e.MC
	refCfg.Samples = CVRefSamples(e.MC.Samples)
	refCfg.Collect = false
	refCfg.Progress = nil // the reference stream is negligible next to the transients
	ctrl := func(n int, r extract.Ratios) float64 { return m.TdpPct(n, r.Rvar, r.Cvar) }
	var rows []SpiceMCCVRow
	for _, o := range litho.Options {
		refTrial, err := analytic.TdpTrial(e.Proc, o, m, e.Cap, sizes)
		if err != nil {
			return nil, fmt.Errorf("spice mc cv %v (reference): %w", o, err)
		}
		ref, err := mc.RunVector(e.ctx(), refCfg, len(sizes), refTrial)
		if err != nil {
			return nil, fmt.Errorf("spice mc cv %v (reference): %w", o, err)
		}
		trial, err := seed.TrialFunc(o, sizes, nomTd, ctrl, e.Build, e.Sim)
		if err != nil {
			return nil, fmt.Errorf("spice mc cv %v: %w", o, err)
		}
		cvr, err := mc.RunVectorPaired(e.ctx(), e.MC, len(sizes), trial)
		if err != nil {
			return nil, fmt.Errorf("spice mc cv %v: %w", o, err)
		}
		for j, n := range sizes {
			rs := ref.Summary(j)
			s := cvr.CVSummary(j, rs.Mean, rs.Std)
			// A numerically perfect ρ̂ (possible at tiny paired budgets)
			// yields an infinite reduction factor; clamp it so every
			// encoder — JSON rejects ±Inf — stays serviceable.
			if s.VarReduction > 1e6 {
				s.VarReduction = 1e6
				s.EffectiveN = float64(s.Plain.N) * s.VarReduction
			}
			rows = append(rows, SpiceMCCVRow{
				Option: o, N: n,
				Spice:        s.Plain,
				CVMean:       s.Mean,
				CVStd:        s.Std,
				Beta:         s.Beta,
				Rho:          s.Rho,
				VarReduction: s.VarReduction,
				EffectiveN:   s.EffectiveN,
				RefMean:      rs.Mean,
				RefStd:       rs.Std,
				RefSamples:   rs.N,
				Rejected:     cvr.Rejected,
			})
		}
	}
	return rows, nil
}

// spiceMCCVResult runs SpiceMCCV and wraps its rows, table and text: the
// -cv estimator of mcspice and mcspicex.
func spiceMCCVResult(e Env, sizes []int) (*Result, error) {
	rows, err := SpiceMCCV(e, sizes)
	if err != nil {
		return nil, err
	}
	return &Result{
		Data:   rows,
		Tables: []*report.Table{SpiceMCCVReport(rows)},
		Text:   func() string { return FormatSpiceMCCV(rows, e.MC.Samples) },
	}, nil
}

// FormatSpiceMCCV renders the control-variate distributions paper-style.
func FormatSpiceMCCV(rows []SpiceMCCVRow, samples int) string {
	nsizes := sizeCount(rows, func(r SpiceMCCVRow) int { return r.N })
	var b strings.Builder
	fmt.Fprintf(&b, "Control-variate SPICE-MC tdp distributions (%d paired draws × %d size(s); analytic control on shared deviates)\n",
		samples, nsizes)
	fmt.Fprintf(&b, "%-8s %8s %10s %10s %10s %7s %7s %8s %10s\n",
		"option", "array", "σ_spice", "σ_cv", "σ_ref", "β", "ρ", "VR", "ESS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8v 10x%-5d %9.3f%% %9.3f%% %9.3f%% %7.3f %7.4f %8.1f %10.0f\n",
			r.Option, r.N, r.Spice.Std, r.CVStd, r.RefStd, r.Beta, r.Rho, r.VarReduction, r.EffectiveN)
	}
	return b.String()
}

// SpiceMCCVReport converts the rows for csv/md/json output.
func SpiceMCCVReport(rows []SpiceMCCVRow) *report.Table {
	t := report.New("Control-variate SPICE-in-the-loop Monte-Carlo tdp distributions",
		"option", "wordlines", "samples", "rejected",
		"spice_sigma_pct", "cv_sigma_pct", "spice_mean_pct", "cv_mean_pct",
		"beta", "rho", "vr_factor", "ess",
		"ref_sigma_pct", "ref_mean_pct", "ref_samples")
	for _, r := range rows {
		t.Appendf(r.Option.String(), r.N, r.Spice.N, r.Rejected,
			r.Spice.Std, r.CVStd, r.Spice.Mean, r.CVMean,
			r.Beta, r.Rho, r.VarReduction, r.EffectiveN,
			r.RefStd, r.RefMean, r.RefSamples)
	}
	return t
}
