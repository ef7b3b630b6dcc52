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
	"mpsram/internal/tech"
)

// SpiceTdpAcrossSizes runs one SPICE-in-the-loop Monte-Carlo stream for
// option o: each draw's lithography-perturbed parasitics feed a full read
// transient at every array size in sizes, and observable j of the result
// is the simulated tdp penalty in percent at sizes[j] against nomTd[j].
// The lithography pipeline runs once per trial no matter how many sizes
// are requested. Every worker owns a sram.ColumnBuilder, whose reads
// borrow a session from sram's process-wide free list: the hot loop
// reuses the netlist scratch, the compiled topology and matrix values,
// and the Newton/waveform buffers across all trials, workers and streams,
// so a stream starts on warm sessions rather than cold ones.
//
// The nominal inputs (sram.NominalParasitics and ColumnBuilder.NominalTds)
// come from the caller: nominal geometry is option-independent, so a
// driver sweeping several options over the same sizes resolves them once
// and shares them across every stream instead of re-simulating the
// nominal reads per option (the same dedup rule the sweep engine applies
// to its plans).
//
// The per-trial sample stream is identical to the analytic
// TdpAcrossSizes for the same (Seed, Samples): both consume the same
// litho.Params draws in the same order, so the two paths are directly
// comparable draw by draw.
func SpiceTdpAcrossSizes(ctx context.Context, p tech.Process, o litho.Option, cm extract.CapModel, sizes []int, nom sram.CellParasitics, nomTd []float64, bopt sram.BuildOptions, sopt sram.SimOptions, cfg Config) (*VectorResult, error) {
	rm, err := spiceStream(p, o, cm, sizes, nomTd)
	if err != nil {
		return nil, err
	}
	cfg.WorkerState = func() any {
		b := sram.NewColumnBuilder(p, cm)
		b.SetNominal(nom)
		return b.TrialFunc(rm, sizes, nomTd, bopt, sopt)
	}
	return RunVectorState(ctx, cfg, len(sizes), func(state any, rng *rand.Rand, out []float64) bool {
		return state.(func(*rand.Rand, []float64) bool)(rng, out)
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
func SpiceTdpCVAcrossSizes(ctx context.Context, p tech.Process, o litho.Option, m analytic.Params, cm extract.CapModel, sizes []int, nom sram.CellParasitics, nomTd []float64, bopt sram.BuildOptions, sopt sram.SimOptions, cfg Config) (*CVVectorResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	rm, err := spiceStream(p, o, cm, sizes, nomTd)
	if err != nil {
		return nil, err
	}
	ctrl := func(n int, r extract.Ratios) float64 { return m.TdpPct(n, r.Rvar, r.Cvar) }
	cfg.WorkerState = func() any {
		b := sram.NewColumnBuilder(p, cm)
		b.SetNominal(nom)
		return b.PairedTrialFunc(rm, sizes, nomTd, ctrl, bopt, sopt)
	}
	return RunVectorPaired(ctx, cfg, len(sizes), func(state any, rng *rand.Rand, y, x []float64) bool {
		return state.(func(*rand.Rand, []float64, []float64) bool)(rng, y, x)
	})
}

// spiceStream validates a SPICE-in-the-loop stream's sizes and nominal
// read times and builds its ratio model, once per stream: the workers'
// trial functions share the read-only model.
func spiceStream(p tech.Process, o litho.Option, cm extract.CapModel, sizes []int, nomTd []float64) (extract.RatioModel, error) {
	if len(sizes) == 0 {
		return extract.RatioModel{}, fmt.Errorf("mc: no array sizes requested")
	}
	if len(nomTd) != len(sizes) {
		return extract.RatioModel{}, fmt.Errorf("mc: %d nominal read times for %d sizes", len(nomTd), len(sizes))
	}
	rm, err := extract.NewRatioModel(p, o, cm)
	if err != nil {
		return extract.RatioModel{}, fmt.Errorf("mc: %w", err)
	}
	return rm, nil
}
