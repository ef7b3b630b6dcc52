// SPICE-in-the-loop Monte-Carlo: the paper's statistical read-delay
// distributions driven by full transients instead of the closed-form tdp
// formula. Every trial draws one lithography sample, extracts the
// perturbed parasitics and simulates the read at every requested array
// size on a pooled warm engine (sram.ColumnBuilder.MeasureTd +
// spice.Engine.Reset), streamed through the same block-deterministic
// aggregation as the analytic path — results are bit-identical for any
// worker count.
package mc

import (
	"context"
	"fmt"
	"math/rand"

	"mpsram/internal/analytic"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/sram"
)

// SpiceTdpAcrossSizes runs one SPICE-in-the-loop Monte-Carlo stream for
// option o on b's process and capacitance model: each draw's
// lithography-perturbed parasitics feed a full read transient at every
// array size in sizes, and observable j of the result is the simulated
// tdp penalty in percent at sizes[j] against nomTd[j]. The lithography
// pipeline runs once per trial no matter how many sizes are requested.
// The stream builds one trial function (sram.ColumnBuilder.TrialFunc)
// that every worker shares; its reads borrow sessions from sram's
// process-wide free list, so the hot loop reuses the netlist scratch, the
// compiled topology and matrix values, and the Newton/waveform buffers
// across all trials, workers and streams.
//
// The nominal inputs come from the caller: nomTd is b.NominalTds(sizes,
// …), which also resolves b's nominal parasitics. Nominal geometry is
// option-independent, so a driver sweeping several options over the same
// sizes resolves them once on one builder and shares it across every
// stream instead of re-simulating the nominal reads per option (as the
// sweep engine shares one nominal read per size across options).
//
// The per-trial sample stream is identical to the analytic
// TdpAcrossSizes for the same (Seed, Samples): both consume the same
// litho.Params draws in the same order, so the two paths are directly
// comparable draw by draw.
func SpiceTdpAcrossSizes(ctx context.Context, b *sram.ColumnBuilder, o litho.Option, sizes []int, nomTd []float64, bopt sram.BuildOptions, sopt sram.SimOptions, cfg Config) (*VectorResult, error) {
	trial, err := spiceTrial(b, o, sizes, nomTd, nil, bopt, sopt)
	if err != nil {
		return nil, err
	}
	return RunVector(ctx, cfg, len(sizes), func(rng *rand.Rand, out []float64) bool {
		return trial(rng, out, nil)
	})
}

// SpiceTdpCVAcrossSizes is SpiceTdpAcrossSizes on the paired
// control-variate path: every trial runs the full read transients *and*
// evaluates the closed-form tdp model m on the same extracted ratios, so
// the result carries the paired moments (β̂, ρ̂, corrected mean/σ, the
// measured variance-reduction factor) next to the plain SPICE statistics.
// The SPICE observable stream is bitwise identical to
// SpiceTdpAcrossSizes for the same (Seed, Samples): the control
// rides the extraction the SPICE trial already performs, it never
// consumes extra deviates.
func SpiceTdpCVAcrossSizes(ctx context.Context, b *sram.ColumnBuilder, o litho.Option, m analytic.Params, sizes []int, nomTd []float64, bopt sram.BuildOptions, sopt sram.SimOptions, cfg Config) (*CVVectorResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ctrl := func(n int, r extract.Ratios) float64 { return m.TdpPct(n, r.Rvar, r.Cvar) }
	trial, err := spiceTrial(b, o, sizes, nomTd, ctrl, bopt, sopt)
	if err != nil {
		return nil, err
	}
	return RunVectorPaired(ctx, cfg, len(sizes), trial)
}

// spiceTrial validates a SPICE-in-the-loop stream's sizes and nominal
// read times and builds its ratio model and trial function, once per
// stream: every worker shares the one read-only closure.
func spiceTrial(b *sram.ColumnBuilder, o litho.Option, sizes []int, nomTd []float64, ctrl func(int, extract.Ratios) float64, bopt sram.BuildOptions, sopt sram.SimOptions) (PairedVectorFunc, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("mc: no array sizes requested")
	}
	if len(nomTd) != len(sizes) {
		return nil, fmt.Errorf("mc: %d nominal read times for %d sizes", len(nomTd), len(sizes))
	}
	rm, err := extract.NewRatioModel(b.Proc, o, b.Cap)
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	trial, err := b.TrialFunc(rm, sizes, nomTd, ctrl, bopt, sopt)
	if err != nil {
		return nil, fmt.Errorf("mc: nominal extraction: %w", err)
	}
	return trial, nil
}
