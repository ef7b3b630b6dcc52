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

// TestPCGSourceDeterministicPerSeed pins the splittable-source contract:
// equal seeds reproduce the identical stream, distinct seeds diverge
// immediately, and reseeding mid-stream fully resets the state.
func TestPCGSourceDeterministicPerSeed(t *testing.T) {
	a, b := new(pcgSource), new(pcgSource)
	a.Seed(42)
	b.Seed(42)
	var first [8]uint64
	for i := range first {
		first[i] = a.Uint64()
		if got := b.Uint64(); got != first[i] {
			t.Fatalf("draw %d: %x vs %x for equal seeds", i, first[i], got)
		}
	}
	b.Seed(43)
	diverged := false
	for i := 0; i < 8; i++ {
		if b.Uint64() != first[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced the same 8-draw prefix")
	}
	// Reseed resets: the original stream replays exactly.
	a.Seed(42)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("reseeded draw %d: %x vs %x", i, got, first[i])
		}
	}
	// Int63 stays non-negative (math/rand.Source contract).
	for i := 0; i < 1000; i++ {
		if v := a.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}

// TestPCGSourceMomentsSane is a cheap statistical smoke: normal deviates
// drawn through math/rand on the PCG source have ~zero mean and ~unit
// variance.
func TestPCGSourceMomentsSane(t *testing.T) {
	rng := rand.New(new(pcgSource))
	rng.Seed(7)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance %v", variance)
	}
}

// TestFastReseedBitIdenticalAcrossWorkers extends the engine's
// worker-count determinism gate to the PCG path: the fast stream must be
// a function of (Seed, trial) only, never of worker scheduling.
func TestFastReseedBitIdenticalAcrossWorkers(t *testing.T) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	ctx := context.Background()
	rm, err := extract.NewRatioModel(p, litho.LE3, cm)
	if err != nil {
		t.Fatal(err)
	}
	params := litho.Params(p, litho.LE3)
	run := func(workers int) *VectorResult {
		cfg := Config{Samples: 2000, Seed: 2015, Workers: workers, FastReseed: true, Collect: true}
		vr, err := RunVector(ctx, cfg, 1, func(rng *rand.Rand, out []float64) bool {
			r, err := rm.Ratios(litho.Draw(params, rng))
			if err != nil {
				return false
			}
			out[0] = r.Cvar
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return vr
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		vr := run(workers)
		if vr.Rejected != base.Rejected || len(vr.Values[0]) != len(base.Values[0]) {
			t.Fatalf("workers=%d: shape mismatch", workers)
		}
		for i := range base.Values[0] {
			if vr.Values[0][i] != base.Values[0][i] {
				t.Fatalf("workers=%d trial %d: %g != %g", workers, i, vr.Values[0][i], base.Values[0][i])
			}
		}
	}
}

// TestFastReseedChangesStreamKeepsStatistics checks both halves of the
// knob's contract: the drawn stream differs from the legacy source (so
// legacy goldens do NOT apply), while the distribution it estimates
// agrees statistically (so re-baselined results stay comparable).
func TestFastReseedChangesStreamKeepsStatistics(t *testing.T) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	ctx := context.Background()
	rm, err := extract.NewRatioModel(p, litho.LE3, cm)
	if err != nil {
		t.Fatal(err)
	}
	params := litho.Params(p, litho.LE3)
	run := func(fast bool) *VectorResult {
		cfg := Config{Samples: 4000, Seed: 2015, FastReseed: fast, Collect: true}
		vr, err := RunVector(ctx, cfg, 1, func(rng *rand.Rand, out []float64) bool {
			r, err := rm.Ratios(litho.Draw(params, rng))
			if err != nil {
				return false
			}
			out[0] = (r.Cvar - 1) * 100
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return vr
	}
	legacy, fast := run(false), run(true)
	same := true
	for i := 0; i < 16 && i < len(legacy.Values[0]) && i < len(fast.Values[0]); i++ {
		if legacy.Values[0][i] != fast.Values[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("fast-reseed stream unexpectedly identical to the legacy stream")
	}
	ls, fs := legacy.Summary(0), fast.Summary(0)
	if math.Abs(ls.Mean-fs.Mean) > 0.25*ls.Std {
		t.Errorf("means diverge: legacy %v fast %v (σ %v)", ls.Mean, fs.Mean, ls.Std)
	}
	if fs.Std < 0.8*ls.Std || fs.Std > 1.25*ls.Std {
		t.Errorf("σ diverges: legacy %v fast %v", ls.Std, fs.Std)
	}
}

// TestLegacyStreamUntouchedByKnob guards the compatibility surface: with
// FastReseed off the engine must reproduce the exact historical stream
// (spot-checked against a hand-rolled legacy-source loop).
func TestLegacyStreamUntouchedByKnob(t *testing.T) {
	cfg := Config{Samples: 64, Seed: 2015, Collect: true}
	vr, err := RunVector(context.Background(), cfg, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0))
	for i := 0; i < cfg.Samples; i++ {
		rng.Seed(trialSeed(cfg.Seed, i))
		if want := rng.NormFloat64(); vr.Values[0][i] != want {
			t.Fatalf("trial %d: %g != legacy %g", i, vr.Values[0][i], want)
		}
	}
}

// BenchmarkTrialReseed prices the per-trial reseed plus one normal draw
// on each source. legacy-lfg is the engine's default, legacySource, whose
// Seed is O(1) and which derives feedback words as draws read them;
// math-rand is the same stream on rand.NewSource, whose Seed rebuilds all
// 607 words with 1 841 divisions; pcg-splitmix is the FastReseed source,
// two SplitMix64 mixes.
func BenchmarkTrialReseed(b *testing.B) {
	for _, arm := range []struct {
		name string
		src  rand.Source
	}{
		{"legacy-lfg", new(legacySource)},
		{"math-rand", rand.NewSource(0)},
		{"pcg-splitmix", new(pcgSource)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			rng := rand.New(arm.src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng.Seed(trialSeed(2015, i))
				rng.NormFloat64()
			}
		})
	}
}

// TestSigmaSurfaceAcrossProcesses covers the process sweep axis at the
// engine level: one surface per case in case order, each node's streams
// independent of the others', error paths for empty and invalid cases.
func TestSigmaSurfaceAcrossProcesses(t *testing.T) {
	cm := extract.SakuraiTamaru{}
	ctx := context.Background()
	cfg := Config{Samples: 300, Seed: 2015}
	var cases []ProcessCase
	for _, p := range []tech.Process{tech.N10(), tech.N7()} {
		m, err := deriveModel(p, cm)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, ProcessCase{Proc: p, Model: m})
	}
	surfs, err := SigmaSurfaceAcross(ctx, cases, cm, []int{16, 64}, []float64{3e-9, 8e-9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(surfs) != 2 || surfs[0].Process != "N10" || surfs[1].Process != "N7" {
		t.Fatalf("surfaces %+v", surfs)
	}
	for _, s := range surfs {
		if len(s.Rows) != 4 { // 2 OL budgets + SADP + EUV
			t.Fatalf("%s: %d rows", s.Process, len(s.Rows))
		}
		for _, r := range s.Rows {
			if len(r.Cells) != 2 || r.Cells[0].Sigma <= 0 {
				t.Fatalf("%s %v: cells %+v", s.Process, r.Option, r.Cells)
			}
		}
	}
	// The single-node surface is reproduced exactly by the sweep.
	single, err := SigmaSurface(ctx, cases[0].Proc, cases[0].Model, cm, []int{16, 64}, []float64{3e-9, 8e-9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range single {
		for j := range single[i].Cells {
			if single[i].Cells[j] != surfs[0].Rows[i].Cells[j] {
				t.Fatalf("row %d cell %d differs from single-node path", i, j)
			}
		}
	}
	if _, err := SigmaSurfaceAcross(ctx, nil, cm, []int{16}, []float64{3e-9}, cfg); err == nil {
		t.Fatal("empty case set must fail")
	}
	bad := tech.N10()
	bad.M1.Width = -1
	if _, err := SigmaSurfaceAcross(ctx, []ProcessCase{{Proc: bad}}, cm, []int{16}, []float64{3e-9}, cfg); err == nil {
		t.Fatal("invalid process must fail")
	}
}

// deriveModel mirrors exp.Env.Model for engine-level tests.
func deriveModel(p tech.Process, cm extract.CapModel) (analytic.Params, error) {
	nom, err := sram.NominalParasitics(p, cm)
	if err != nil {
		return analytic.Params{}, err
	}
	return analytic.Derive(p, nom.Rbl, nom.Cbl)
}
