package mc

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"mpsram/internal/analytic"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/sram"
	"mpsram/internal/stats"
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

func TestTdpVectorRejectsCollapse(t *testing.T) {
	// With a huge overlay budget some LE3 draws must collapse and be
	// rejected rather than crash.
	p, m := model(t)
	p = p.WithOL(40e-9)
	f, err := TdpVector(p, litho.LE3, m, cm, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1)
	rejected := 0
	for i := 0; i < 200; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if !f(rng, out) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("expected some collapsed-geometry rejections")
	}
}

// TestTdpVectorTrialAllocationFree pins the analytic trial at zero heap
// allocations once warm: TdpVector builds the stream's params and ratio
// model, and the draw and both windows stay on the stack. It holds on
// every option, with the thickness source off and on.
func TestTdpVectorTrialAllocationFree(t *testing.T) {
	p, m := model(t)
	sizes := []int{16, 64, 256, 1024}
	out := make([]float64, len(sizes))
	rng := rand.New(rand.NewSource(0))
	for _, thk := range []float64{0, 2e-9} {
		p.Var.Thk3Sigma = thk
		for _, o := range litho.AllOptions {
			f, err := TdpVector(p, o, m, cm, sizes)
			if err != nil {
				t.Fatal(err)
			}
			i, accepted := 0, 0
			allocs := testing.AllocsPerRun(100, func() {
				rng.Seed(trialSeed(2015, i))
				i++
				if f(rng, out) {
					accepted++
				}
			})
			if allocs != 0 {
				t.Errorf("%v (thk 3σ %g): %v allocations per trial", o, thk, allocs)
			}
			if accepted == 0 {
				t.Errorf("%v (thk 3σ %g): every trial rejected", o, thk)
			}
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}
	run := func(seed int64, workers int) stats.Summary {
		t.Helper()
		r, err := RunVector(context.Background(), Config{Samples: 500, Seed: seed, Workers: workers, Collect: true}, 1, f)
		if err != nil {
			t.Fatal(err)
		}
		return r.Summary(0)
	}
	r1, r8 := run(42, 1), run(42, 8)
	if r1.Mean != r8.Mean || r1.Std != r8.Std {
		t.Fatal("results depend on worker count")
	}
	// Different seed → different stream.
	if r2 := run(43, 1); r1.Mean == r2.Mean {
		t.Fatal("seed has no effect")
	}
}

// TestTableIVShape is the Table IV reproduction gate.
func TestTableIVShape(t *testing.T) {
	p, m := model(t)
	cfg := Config{Samples: 4000, Seed: 7}
	rows, err := SigmaSurface(context.Background(), p, m, cm, []int{64}, []float64{3e-9, 5e-9, 7e-9, 8e-9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("row count %d", len(rows))
	}
	sig := map[string]float64{}
	for i, r := range rows {
		if len(r.Cells) != 1 || r.Cells[0].N != 64 || r.Cells[0].Sigma <= 0 {
			t.Fatalf("row %d: cells %+v", i, r.Cells)
		}
		key := r.Option.String()
		if r.Option == litho.LE3 {
			key = key + ":" + itoa(int(r.OL*1e9))
		}
		sig[key] = r.Cells[0].Sigma
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

func TestTdpAcrossSizesValidatesModel(t *testing.T) {
	p, m := model(t)
	m.CPre = nil
	if _, err := TdpAcrossSizes(context.Background(), p, litho.EUV, m, cm, []int{64}, Config{Samples: 10, Seed: 1}); err == nil {
		t.Fatal("invalid model must be rejected")
	}
}

// TestTdpAcrossSizesValidatesStream checks that a nil capacitance model
// and an unrealizable nominal window are reported before any trial runs,
// rather than panicking inside a worker or surfacing as an all-rejected
// run.
func TestTdpAcrossSizesValidatesStream(t *testing.T) {
	p, m := model(t)
	merged := p
	merged.M1.Width = merged.M1.Pitch + 1e-9 // nominal neighbours overlap
	for _, tc := range []struct {
		name string
		p    tech.Process
		cm   extract.CapModel
		want string
	}{
		{"nil cap model", p, nil, "mc: nil capacitance model"},
		{"merged nominal", merged, cm, "mc: nominal geometry: EUV: wires 0 and 1 merged"},
	} {
		trials := 0
		cfg := Config{Samples: 10, Seed: 1, Progress: func(done, _ int) { trials = done }}
		_, err := TdpAcrossSizes(context.Background(), tc.p, litho.EUV, m, tc.cm, []int{64}, cfg)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want prefix %q", tc.name, err, tc.want)
		}
		if trials != 0 {
			t.Errorf("%s: %d trials ran before the error", tc.name, trials)
		}
	}
}
