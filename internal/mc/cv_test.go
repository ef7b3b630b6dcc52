package mc

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// pairedTestFunc is a cheap synthetic paired trial: the control is a
// Gaussian draw, the primary is a correlated transform of the same draw
// plus independent noise — the structure of the SPICE/analytic pair
// without the transients.
func pairedTestFunc(rejectEvery int) PairedVectorFunc {
	return func(rng *rand.Rand, y, x []float64) bool {
		base := rng.NormFloat64()
		noise := rng.NormFloat64()
		if rejectEvery > 0 && int(math.Abs(base*1e6))%rejectEvery == 0 {
			return false
		}
		for j := range y {
			x[j] = base * float64(j+1)
			y[j] = 2*x[j] + 1 + 0.2*noise
		}
		return true
	}
}

// TestRunVectorPairedBitIdenticalAcrossWorkers is the CV determinism
// gate: every paired moment — and hence β̂, ρ̂, the corrected estimators
// and the variance-reduction factor — must be exactly identical for
// Workers ∈ {1, 8}.
func TestRunVectorPairedBitIdenticalAcrossWorkers(t *testing.T) {
	var ref *CVVectorResult
	for _, w := range []int{1, 8} {
		res, err := RunVectorPaired(context.Background(),
			Config{Samples: 2000, Seed: 42, Workers: w}, 2, pairedTestFunc(17))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Rejected != ref.Rejected {
			t.Fatalf("workers=%d: rejected %d != %d", w, res.Rejected, ref.Rejected)
		}
		for j := range res.CV {
			if res.CV[j] != ref.CV[j] {
				t.Fatalf("workers=%d obs %d: CV accumulator drifted:\n%+v\n%+v",
					w, j, res.CV[j], ref.CV[j])
			}
			if res.Stats[j] != ref.Stats[j] {
				t.Fatalf("workers=%d obs %d: primary stats drifted", w, j)
			}
			if res.Quantiles[j] != ref.Quantiles[j] {
				t.Fatalf("workers=%d obs %d: quantile sketches drifted", w, j)
			}
			// Summary equality modulo the NaN Skew field (NaN ≠ NaN).
			a, b := res.CVSummary(j, 0, 1), ref.CVSummary(j, 0, 1)
			a.Plain.Skew, b.Plain.Skew = 0, 0
			if a != b {
				t.Fatalf("workers=%d obs %d: CV summary drifted:\n%+v\n%+v", w, j, a, b)
			}
		}
	}
}

// TestRunVectorPairedMatchesPlainPrimary: the primary-side statistics of
// the paired path must be bit-identical to a plain RunVector over the
// same primary stream — the control rides along without perturbing the
// deviates or the aggregation.
func TestRunVectorPairedMatchesPlainPrimary(t *testing.T) {
	cfg := Config{Samples: 1500, Seed: 2015, Workers: 4}
	paired, err := RunVectorPaired(context.Background(), cfg, 2, pairedTestFunc(0))
	if err != nil {
		t.Fatal(err)
	}
	f := pairedTestFunc(0)
	plain, err := RunVector(context.Background(), cfg, 2, func(rng *rand.Rand, out []float64) bool {
		x := make([]float64, len(out))
		return f(rng, out, x)
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := range plain.Stats {
		if paired.Stats[j] != plain.Stats[j] {
			t.Fatalf("obs %d: paired primary stats != plain stats", j)
		}
		if paired.Quantiles[j] != plain.Quantiles[j] {
			t.Fatalf("obs %d: paired quantiles != plain quantiles", j)
		}
	}
	// The synthetic pair is strongly correlated: the measured variance
	// reduction must be material and the regression slope recovered.
	for j := range paired.CV {
		s := paired.CVSummary(j, 0, float64(j+1))
		if s.Rho < 0.95 {
			t.Fatalf("obs %d: ρ̂ = %v, want strongly correlated pair", j, s.Rho)
		}
		if s.VarReduction < 5 || s.EffectiveN < 5*float64(cfg.Samples) {
			t.Fatalf("obs %d: weak variance reduction %v (ess %v)", j, s.VarReduction, s.EffectiveN)
		}
		if math.Abs(s.Beta-2) > 0.05 {
			t.Fatalf("obs %d: β̂ = %v, want ≈ 2", j, s.Beta)
		}
		// Corrected std with the true control σ: y = 2x + 1 + 0.2ε →
		// σy = √(4σx² + 0.04).
		want := math.Sqrt(4*float64(j+1)*float64(j+1) + 0.04)
		if math.Abs(s.Std/want-1) > 0.05 {
			t.Fatalf("obs %d: corrected σ %v, want ≈ %v", j, s.Std, want)
		}
	}
}

// TestRunVectorPairedRejectsBadConfig covers the argument guards.
func TestRunVectorPairedRejectsBadConfig(t *testing.T) {
	f := pairedTestFunc(0)
	if _, err := RunVectorPaired(nil, Config{Samples: 0}, 1, f); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := RunVectorPaired(nil, Config{Samples: 10}, 0, f); err == nil {
		t.Fatal("zero observables accepted")
	}
	if _, err := RunVectorPaired(nil, Config{Samples: 10, Collect: true}, 1, f); err == nil {
		t.Fatal("Collect accepted on the streaming-only paired path")
	}
	reject := func(_ *rand.Rand, _, _ []float64) bool { return false }
	if _, err := RunVectorPaired(nil, Config{Samples: 10}, 1, reject); err == nil {
		t.Fatal("all-rejected run must error")
	}
}

// TestRunVectorPairedCancel: cancellation between blocks surfaces as an
// error, like the plain engine.
func TestRunVectorPairedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunVectorPaired(ctx, Config{Samples: 5000, Seed: 1, Workers: 2}, 1,
		pairedTestFunc(0)); err == nil {
		t.Fatal("canceled run returned no error")
	}
}
