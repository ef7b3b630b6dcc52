package mc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mpsram/internal/analytic"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/sram"
	"mpsram/internal/tech"
)

var cm = extract.SakuraiTamaru{}

func model(t *testing.T) (tech.Process, analytic.Params) {
	t.Helper()
	p := tech.N10()
	nom, err := sram.NominalParasitics(p, cm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := analytic.Derive(p, nom.Rbl, nom.Cbl)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestRunGaussianMoments(t *testing.T) {
	res, err := Run(context.Background(), Config{Samples: 20000, Seed: 11}, func(rng *rand.Rand) (float64, bool) {
		return rng.NormFloat64()*3 + 5, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Summary.Mean-5) > 0.1 {
		t.Fatalf("mean %g", res.Summary.Mean)
	}
	if math.Abs(res.Summary.Std-3) > 0.1 {
		t.Fatalf("std %g", res.Summary.Std)
	}
	if res.Rejected != 0 {
		t.Fatalf("rejected %d", res.Rejected)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	f := func(rng *rand.Rand) (float64, bool) { return rng.NormFloat64(), true }
	r1, err := Run(context.Background(), Config{Samples: 500, Seed: 42, Workers: 1}, f)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(context.Background(), Config{Samples: 500, Seed: 42, Workers: 8}, f)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Summary.Mean != r8.Summary.Mean || r1.Summary.Std != r8.Summary.Std {
		t.Fatal("results depend on worker count")
	}
	// Different seed → different stream.
	r2, _ := Run(context.Background(), Config{Samples: 500, Seed: 43, Workers: 1}, f)
	if r1.Summary.Mean == r2.Summary.Mean {
		t.Fatal("seed has no effect")
	}
}

func TestRunRejections(t *testing.T) {
	res, err := Run(context.Background(), Config{Samples: 100, Seed: 1}, func(rng *rand.Rand) (float64, bool) {
		v := rng.Float64()
		return v, v > 0.5
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 || res.Rejected == 100 {
		t.Fatalf("rejected = %d", res.Rejected)
	}
	if len(res.Values)+res.Rejected != 100 {
		t.Fatal("counts do not add up")
	}
	// All rejected → error.
	if _, err := Run(context.Background(), Config{Samples: 10, Seed: 1}, func(rng *rand.Rand) (float64, bool) {
		return 0, false
	}); err == nil {
		t.Fatal("all-rejected run must error")
	}
	// Bad config.
	if _, err := Run(context.Background(), Config{Samples: 0}, f0); err == nil {
		t.Fatal("zero samples must error")
	}
}

func f0(rng *rand.Rand) (float64, bool) { return 0, true }

func TestSampleRatiosRejectsCollapse(t *testing.T) {
	// With a huge overlay budget some LE3 draws must collapse and be
	// rejected rather than crash.
	p, _ := model(t)
	p = p.WithOL(40e-9)
	rejected := 0
	for i := 0; i < 200; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, ok := SampleRatios(p, litho.LE3, cm, rng); !ok {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("expected some collapsed-geometry rejections")
	}
}

// TestTableIVShape is the Table IV reproduction gate.
func TestTableIVShape(t *testing.T) {
	p, m := model(t)
	cfg := Config{Samples: 4000, Seed: 7}
	rows, err := SigmaSweep(context.Background(), p, m, cm, 64, []float64{3e-9, 5e-9, 7e-9, 8e-9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("row count %d", len(rows))
	}
	sig := map[string]float64{}
	for i, r := range rows {
		if r.Sigma <= 0 {
			t.Fatalf("row %d: sigma %g", i, r.Sigma)
		}
		key := r.Option.String()
		if r.Option == litho.LE3 {
			key = key + ":" + itoa(int(r.OL*1e9))
		}
		sig[key] = r.Sigma
	}
	// σ(LE3) strictly increases with the overlay budget.
	if !(sig["LELELE:3"] < sig["LELELE:5"] && sig["LELELE:5"] < sig["LELELE:7"] &&
		sig["LELELE:7"] < sig["LELELE:8"]) {
		t.Fatalf("LE3 sigma not monotone in OL: %+v", sig)
	}
	// σ(LE3 @8nm) at least 2× σ(SADP) (paper: 0.753 vs 0.317).
	if sig["LELELE:8"] < 2*sig["SADP"] {
		t.Fatalf("LE3@8nm %.3f not ≥ 2× SADP %.3f", sig["LELELE:8"], sig["SADP"])
	}
	// SADP is the tightest distribution.
	if !(sig["SADP"] < sig["EUV"]) {
		t.Fatalf("SADP %.3f not < EUV %.3f", sig["SADP"], sig["EUV"])
	}
	// Tight-OL LE3 reaches the EUV class (paper: 0.414 ≈ 0.415).
	ratio := sig["LELELE:3"] / sig["EUV"]
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("LE3@3nm/EUV ratio %.2f outside comparable band", ratio)
	}
}

func itoa(v int) string {
	return string(rune('0' + v))
}

func TestTdpDistributionHistogram(t *testing.T) {
	p, m := model(t)
	res, err := TdpDistribution(context.Background(), p, litho.LE3, m, cm, 64, Config{Samples: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := res.Histogram(12)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != len(res.Values) {
		t.Fatal("histogram lost samples")
	}
	u, o := h.Outliers()
	if u != 0 || o != 0 {
		t.Fatalf("range should cover all values: %d/%d", u, o)
	}
	// The LE3 tdp distribution is right-skewed (coupling blows up faster
	// when lines approach than it relaxes when they separate).
	if res.Summary.Skew <= 0 {
		t.Fatalf("LE3 tdp skew %g, want positive", res.Summary.Skew)
	}
}

func TestTdpDistributionValidatesModel(t *testing.T) {
	p, m := model(t)
	m.CPre = nil
	if _, err := TdpDistribution(context.Background(), p, litho.EUV, m, cm, 64, Config{Samples: 10, Seed: 1}); err == nil {
		t.Fatal("invalid model must be rejected")
	}
}

func TestDegenerateHistogramRange(t *testing.T) {
	res := Result{Values: []float64{1, 1, 1}}
	res.Summary.Min, res.Summary.Max = 1, 1
	if _, err := res.Histogram(5); err != nil {
		t.Fatalf("degenerate range must still histogram: %v", err)
	}
}
