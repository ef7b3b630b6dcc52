package mc

import (
	"context"
	"math/rand"
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

// tdpAcrossSizes runs option o's analytic trial (analytic.TdpTrial) at
// sizes on the engine: the stream behind Fig. 5 and Table IV, and this
// package's realistic workload.
func tdpAcrossSizes(t *testing.T, p tech.Process, o litho.Option, m analytic.Params, sizes []int, cfg Config) *VectorResult {
	t.Helper()
	f, err := analytic.TdpTrial(p, o, m, cm, sizes)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := RunVector(context.Background(), cfg, len(sizes), f)
	if err != nil {
		t.Fatal(err)
	}
	return vr
}

func TestTdpVectorRejectsCollapse(t *testing.T) {
	// With a huge overlay budget some LE3 draws of the analytic trial
	// must collapse and be rejected rather than crash.
	p, m := model(t)
	p = p.WithOL(40e-9)
	f, err := analytic.TdpTrial(p, litho.LE3, m, cm, []int{64})
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
// allocations once warm: analytic.TdpTrial builds the stream's params and
// ratio model, and the draw and both windows stay on the stack. It holds
// on every option, with the thickness source off and on.
func TestTdpVectorTrialAllocationFree(t *testing.T) {
	p, m := model(t)
	sizes := []int{16, 64, 256, 1024}
	out := make([]float64, len(sizes))
	rng := rand.New(rand.NewSource(0))
	for _, thk := range []float64{0, 2e-9} {
		p.Var.Thk3Sigma = thk
		for _, o := range litho.AllOptions {
			f, err := analytic.TdpTrial(p, o, m, cm, sizes)
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
