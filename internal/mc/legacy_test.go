package mc

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// legacySeeds returns the seeds TestLegacySourceMatchesMathRand checks:
// the edges of math/rand's seed reduction (zero and its substitute, ±1,
// multiples of 2³¹−1 and their neighbours, the int64 extremes) and then
// n SplitMix64-spread seeds.
func legacySeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, zeroSeed, -zeroSeed,
		m31, -m31, 2 * m31, -2 * m31, 1e6 * m31, -1e6 * m31,
		m31 - 1, m31 + 1, -(m31 - 1), -(m31 + 1), 1 << 31, -(1 << 31),
		zeroSeed + m31, zeroSeed - m31,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		(math.MaxInt64 / m31) * m31, (math.MinInt64 / m31) * m31,
		2015, 7, 11,
	}
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(splitmix64(uint64(i))))
	}
	return seeds
}

// splitmix64 is the SplitMix64 finalizer, which legacySeeds uses to
// spread its seeds over the int64 range.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// TestLegacySourceMatchesMathRand holds legacySource to rand.NewSource
// bit for bit: long streams past the feed wrap (draw 334) and the tap
// wrap (draw 607) for over ten thousand seeds, short streams cut by a
// reseed at every phase boundary, and the rand.Rand methods the trials
// call on top of the source.
func TestLegacySourceMatchesMathRand(t *testing.T) {
	const draws = 1500
	var got legacySource
	for _, seed := range legacySeeds(10000) {
		want := rand.NewSource(seed).(rand.Source64)
		got.Seed(seed)
		for d := 1; d <= draws; d++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, d, g, w)
			}
		}
	}

	// A reseed mid-stream starts over, whatever phase the cut stream had
	// reached: cuts at every length up to past the tap wrap.
	seeds := legacySeeds(0)
	for k, n := range []int{0, 1, 2, 5, 272, 273, 274, 333, 334, 335, 606, 607, 608, 941, 942} {
		got.Seed(seeds[k])
		for d := 0; d < n; d++ {
			got.Uint64()
		}
		next := seeds[k+1]
		got.Seed(next)
		want := rand.NewSource(next).(rand.Source64)
		for d := 1; d <= lfgLen+40; d++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d after a %d-draw stream, draw %d: %#x, math/rand %#x", next, n, d, g, w)
			}
		}
	}

	// The rand.Rand surface the trials draw through.
	wr, gr := rand.New(rand.NewSource(0)), rand.New(new(legacySource))
	for _, seed := range legacySeeds(200) {
		wr.Seed(seed)
		gr.Seed(seed)
		for d := 0; d < 120; d++ {
			if w, g := wr.Int63(), gr.Int63(); w != g {
				t.Fatalf("seed %d Int63 %d: %d, math/rand %d", seed, d, g, w)
			}
			if w, g := wr.NormFloat64(), gr.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d NormFloat64 %d: %v, math/rand %v", seed, d, g, w)
			}
			if w, g := wr.Intn(1000+d), gr.Intn(1000+d); w != g {
				t.Fatalf("seed %d Intn %d: %d, math/rand %d", seed, d, g, w)
			}
			if w, g := wr.Float64(), gr.Float64(); w != g {
				t.Fatalf("seed %d Float64 %d: %v, math/rand %v", seed, d, g, w)
			}
		}
	}
}

// TestLegacyCookedMatchesMathRand checks the cooked table derived from
// rand.NewSource(1) against streams it was not derived from: for each
// seed, the starting words recovered from math/rand's first 607 outputs
// must equal the words legacySource derives, and a few entries must equal
// math/rand's own constants.
func TestLegacyCookedMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{2, 7, 2015, -1, 0, m31, math.MaxInt64, math.MinInt64} {
		var s legacySource
		s.Seed(seed)
		words := initialWords(rand.NewSource(seed).(rand.Source64))
		for i := range words {
			if g := seededWord(s.x0, i); g != words[i] {
				t.Fatalf("seed %d word %d: %#x, math/rand starts from %#x", seed, i, g, words[i])
			}
		}
	}
	// The first, second and last entries of math/rand's rngCooked.
	for i, want := range map[int]int64{0: -4181792142133755926, 1: -4576982950128230565, 606: 4152330101494654406} {
		if lfgCooked[i] != want {
			t.Errorf("cooked[%d] = %d, math/rand has %d", i, lfgCooked[i], want)
		}
	}
}

// TestMulMod31 checks the division-free reduction against %.
func TestMulMod31(t *testing.T) {
	edges := []uint64{0, 1, 2, lehmerA, m31 - 2, m31 - 1, 1 << 30, 1<<31 - 2}
	for _, a := range edges {
		for _, b := range edges {
			if g, w := mulMod31(a, b), a*b%m31; g != w {
				t.Fatalf("%d·%d: %d, want %d", a, b, g, w)
			}
		}
	}
	for i := uint64(0); i < 100000; i++ {
		a, b := splitmix64(i)%m31, splitmix64(^i)%m31
		if g, w := mulMod31(a, b), a*b%m31; g != w {
			t.Fatalf("%d·%d: %d, want %d", a, b, g, w)
		}
	}
}

// TestLegacySourceAllocationFree pins a reseed plus 20 draws at zero
// allocations.
func TestLegacySourceAllocationFree(t *testing.T) {
	rng := rand.New(new(legacySource))
	seed := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		rng.Seed(trialSeed(2015, int(seed)))
		for d := 0; d < 20; d++ {
			rng.NormFloat64()
		}
	})
	if allocs != 0 {
		t.Fatalf("Seed + 20 draws: %v allocations, want 0", allocs)
	}
}

// FuzzLegacySource checks legacySource against rand.NewSource for any
// seed over ndraws draws, a reseed to the same seed, and a few more.
func FuzzLegacySource(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(2015), uint16(335))
	f.Add(int64(-m31), uint16(608))
	f.Add(int64(math.MinInt64), uint16(1500))
	f.Fuzz(func(t *testing.T, seed int64, ndraws uint16) {
		n := int(ndraws % 2048)
		want := rand.NewSource(seed).(rand.Source64)
		var got legacySource
		got.Seed(seed)
		for d := 1; d <= n; d++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, d, g, w)
			}
		}
		want.Seed(seed)
		got.Seed(seed)
		for d := 1; d <= 64; d++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d reseeded draw %d: %d, math/rand %d", seed, d, g, w)
			}
		}
	})
}

// TestEngineDrawsLegacyStream guards the compatibility surface: the
// engine must reproduce the exact historical stream (spot-checked
// against a hand-rolled math/rand loop).
func TestEngineDrawsLegacyStream(t *testing.T) {
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
// on each source of the same stream. legacy-lfg is the engine's
// legacySource, whose Seed is O(1) and which derives feedback words as
// draws read them; math-rand is rand.NewSource, whose Seed rebuilds all
// 607 words with 1 841 divisions.
func BenchmarkTrialReseed(b *testing.B) {
	for _, arm := range []struct {
		name string
		src  rand.Source
	}{
		{"legacy-lfg", new(legacySource)},
		{"math-rand", rand.NewSource(0)},
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
