package sram

import (
	"math"
	"math/rand"
	"testing"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

// adaptiveTdTol is the DOE accuracy gate on the adaptive integrator: the
// step-doubling path must reproduce the fixed-step read time within 0.5 %
// at every (process, option, size) before the Monte-Carlo hot loop is
// allowed to opt in. Measured headroom at the default 50 µV LTETol is
// ≈ 0.33 % worst-case (n = 16, where td is shortest).
const adaptiveTdTol = 0.005

// doeDraw returns one deterministic lithography-perturbed parasitics set
// per (process, option): a mid-spread draw that exercises the perturbed
// netlists the MC trial loop actually simulates, not just the nominal.
func doeDraw(t *testing.T, b *ColumnBuilder, o litho.Option, seed int64) CellParasitics {
	t.Helper()
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	s := litho.Draw(litho.Params(b.Proc, o), rng)
	r, err := extract.VarRatios(b.Proc, o, s, b.Cap)
	if err != nil {
		t.Fatal(err)
	}
	return nom.Scale(r)
}

// TestAdaptiveMatchesFixedAcrossDOE is the accuracy gate for
// SimOptions{Adaptive: true} across the full DOE — every patterning
// option × array size × process preset: the adaptive read time must match
// the fixed-step reference within adaptiveTdTol, and the promised speedup
// must be real (≥ 5× fewer time steps at every point). Both reads end on
// the step where td's crossing is recorded; the smallest ratio is logged.
func TestAdaptiveMatchesFixedAcrossDOE(t *testing.T) {
	if testing.Short() {
		t.Skip("full-DOE transient gate (≈ 72 SPICE transients); run without -short")
	}
	cm := extract.SakuraiTamaru{}
	minRatio := math.Inf(1)
	for _, p := range tech.Default().Processes() {
		b := NewColumnBuilder(p, cm)
		for oi, o := range litho.Options {
			cp := doeDraw(t, b, o, int64(1000+oi))
			for _, n := range []int{16, 64, 256, 1024} {
				colF, err := b.Build(n, cp, BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				fixed, err := colF.MeasureTd(cp, SimOptions{})
				if err != nil {
					t.Fatalf("%s/%v n=%d fixed: %v", p.Name, o, n, err)
				}
				colA, err := b.Build(n, cp, BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				adapt, err := colA.MeasureTd(cp, SimOptions{Adaptive: true})
				if err != nil {
					t.Fatalf("%s/%v n=%d adaptive: %v", p.Name, o, n, err)
				}
				rel := math.Abs(adapt.Td/fixed.Td - 1)
				if rel > adaptiveTdTol {
					t.Errorf("%s/%v n=%d: adaptive td off by %.3f%% (fixed %.3g, adaptive %.3g)",
						p.Name, o, n, rel*100, fixed.Td, adapt.Td)
				}
				sf, sa := len(fixed.Result.T), len(adapt.Result.T)
				minRatio = math.Min(minRatio, float64(sf)/float64(sa))
				if sa*5 > sf {
					t.Errorf("%s/%v n=%d: adaptive used %d steps vs %d fixed — speedup below 5×",
						p.Name, o, n, sa, sf)
				}
			}
		}
	}
	t.Logf("smallest fixed/adaptive step ratio across the DOE: %.2f×", minRatio)
}

// TestAdaptiveGateTripsOnLooseLTETol proves the gate above is live: with
// the local-truncation-error tolerance deliberately loosened by ~400×
// (SimOptions.LTETol), the adaptive td drifts past adaptiveTdTol at the
// most sensitive DOE point (smallest array, shortest td). If this stops
// tripping, the gate has gone soft and no longer guards the default.
func TestAdaptiveGateTripsOnLooseLTETol(t *testing.T) {
	p := tech.N10()
	b := NewColumnBuilder(p, extract.SakuraiTamaru{})
	cp := doeDraw(t, b, litho.LE3, 1000)
	const n = 16
	fixed, err := b.MeasureTd(n, cp, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := b.MeasureTd(n, cp, BuildOptions{}, SimOptions{Adaptive: true, LTETol: 20e-3})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(loose/fixed - 1); rel <= adaptiveTdTol {
		t.Fatalf("loosened LTETol stayed within the gate (%.3f%% ≤ %.1f%%) — the accuracy gate is not discriminating",
			rel*100, adaptiveTdTol*100)
	}
	// And the default tolerance on the same point passes the gate.
	tight, err := b.MeasureTd(n, cp, BuildOptions{}, SimOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(tight/fixed - 1); rel > adaptiveTdTol {
		t.Fatalf("default LTETol outside the gate: %.3f%%", rel*100)
	}
}
