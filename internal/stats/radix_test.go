package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleSummarize is Summarize as it was before the radix sort:
// sort.Float64s, then the same arithmetic, written unfused as the live
// code writes it (amd64 never fuses, so there these are the old bits).
func oracleSummarize(values []float64) Summary {
	n := len(values)
	if n == 0 {
		return Summary{}
	}
	sort.Float64s(values)
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	var m2, m3 float64
	for _, v := range values {
		d := v - mean
		m2 += float64(d * d)
		m3 += float64(d * d * d)
	}
	s := Summary{
		N:      n,
		Mean:   mean,
		Min:    values[0],
		Max:    values[n-1],
		Median: Quantile(values, 0.5),
		P05:    Quantile(values, 0.05),
		P95:    Quantile(values, 0.95),
	}
	if n > 1 {
		s.Std = math.Sqrt(m2 / float64(n-1))
		if s.Std > 0 {
			s.Skew = (m3 / float64(n)) / math.Pow(m2/float64(n), 1.5)
		}
	}
	return s
}

// matchSortOracle fails t unless sortFloat64s and Summarize leave the
// bits sort.Float64s and oracleSummarize give for values (which it does
// not modify): every sorted value and every Summary field.
func matchSortOracle(t *testing.T, values []float64) {
	t.Helper()
	want := append([]float64(nil), values...)
	sort.Float64s(want)
	got := append([]float64(nil), values...)
	sortFloat64s(got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: sorted[%d] = %v (%#x), sort.Float64s %v (%#x)",
				len(values), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	ws := oracleSummarize(append([]float64(nil), values...))
	gs := Summarize(append([]float64(nil), values...))
	wf := []float64{ws.Mean, ws.Std, ws.Min, ws.Max, ws.Median, ws.P05, ws.P95, ws.Skew}
	gf := []float64{gs.Mean, gs.Std, gs.Min, gs.Max, gs.Median, gs.P05, gs.P95, gs.Skew}
	for i := range wf {
		if gs.N != ws.N || math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
			t.Fatalf("n=%d: Summarize %+v, oracle %+v", len(values), gs, ws)
		}
	}
}

// sortInput draws n values for the sort oracle. Each bit of mix admits
// one family, each value drawn from an admitted family or, as often, a
// Gaussian of the Fig. 5 tdp shape (mean 0.1, σ 1, both signs):
//
//	1   ties: one of 8 values
//	2   −0
//	4   +0
//	8   ±Inf
//	16  subnormals of either sign
//	32  NaNs with random payloads and signs
//	64  any bit pattern
//	128 values sharing their top 40 key bits (long shared prefixes)
func sortInput(rng *rand.Rand, n int, mix uint8) []float64 {
	var ties [8]float64
	for i := range ties {
		ties[i] = math.Round(rng.NormFloat64()*4) / 4
	}
	base := math.Float64bits(1 + rng.Float64())
	vals := make([]float64, n)
	for i := range vals {
		v := 0.1 + rng.NormFloat64()
		if f := rng.Intn(16); f < 8 && mix&(1<<f) != 0 {
			switch f {
			case 0:
				v = ties[rng.Intn(len(ties))]
			case 1:
				v = math.Copysign(0, -1)
			case 2:
				v = 0
			case 3:
				v = math.Inf(1 - 2*rng.Intn(2))
			case 4:
				v = math.Float64frombits(rng.Uint64()>>12 | uint64(rng.Intn(2))<<63) // or ±0
			case 5:
				v = math.Float64frombits(0x7ff0_0000_0000_0001 | rng.Uint64()&(1<<52-1) | uint64(rng.Intn(2))<<63)
			case 6:
				v = math.Float64frombits(rng.Uint64())
			case 7:
				v = math.Float64frombits(base&^(1<<24-1) | rng.Uint64()&(1<<24-1))
			}
		}
		vals[i] = v
	}
	return vals
}

// TestSortMatchesFloat64s runs the oracle on fixed arrays: the zeros
// alone and mixed in both orders, NaNs, infinities, subnormals, ties,
// equal keys, and lengths around the insertion-sort cutoff.
func TestSortMatchesFloat64s(t *testing.T) {
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	nan2 := math.Float64frombits(0xfff8_0000_0000_0001)
	sub := math.SmallestNonzeroFloat64
	cases := [][]float64{
		nil, {1}, {2, 1}, {1, 1, 1},
		{negZero}, {0}, {negZero, negZero, 1},
		{negZero, 0}, {0, negZero}, {1, negZero, -1, 0, negZero},
		{negZero, 3, -2, negZero}, {0, 3, -2, 0},
		{nan}, {nan, 1, nan2, -1}, {1, nan, negZero, 0},
		{inf, -inf, 0, 1, -1}, {sub, -sub, negZero, 0x1p-1022, -0x1p-1022},
		{sub, -sub, 0, math.MaxFloat64, -math.MaxFloat64},
	}
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{insertionMax - 1, insertionMax, insertionMax + 1, 2 * insertionMax, 257, 5000} {
		for _, mix := range []uint8{0, 1, 2, 4, 6, 8, 16, 32, 64, 128, 255} {
			cases = append(cases, sortInput(rng, n, mix))
		}
	}
	for i, c := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) { matchSortOracle(t, c) })
	}
}

// FuzzSummarizeSort proves sortFloat64s and Summarize bit-identical to
// sort.Float64s and the Summarize it replaced on random arrays of 0–5 000
// values: ties, −0 and +0 alone or mixed, ±Inf, subnormals, NaNs with
// different payloads, arbitrary bit patterns and long shared key
// prefixes (see sortInput), at lengths around the insertion-sort cutoff
// among the seeds.
func FuzzSummarizeSort(f *testing.F) {
	for i, n := range []uint16{0, 1, 2, insertionMax - 1, insertionMax, insertionMax + 1, 100, 1000, 5000} {
		f.Add(int64(i), n, uint8(0))
		f.Add(int64(i), n, uint8(255))
	}
	f.Add(int64(7), uint16(3000), uint8(1))
	f.Add(int64(8), uint16(4000), uint8(2|4))
	f.Add(int64(9), uint16(2000), uint8(2|8|16))
	f.Add(int64(10), uint16(2000), uint8(32))
	f.Add(int64(11), uint16(5000), uint8(128|1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mix uint8) {
		rng := rand.New(rand.NewSource(seed))
		matchSortOracle(t, sortInput(rng, int(nRaw)%5001, mix))
	})
}

// TestSummarizeAllocationFree pins Summarize of 50 000 values, sort
// included, at zero heap allocations.
func TestSummarizeAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	vals := sortInput(rng, 50000, 0)
	work := make([]float64, len(vals))
	allocs := testing.AllocsPerRun(10, func() {
		copy(work, vals)
		Summarize(work)
	})
	if allocs != 0 {
		t.Fatalf("Summarize of %d values allocates %v times", len(vals), allocs)
	}
}

// BenchmarkSummarize measures Summarize, sort included, on Fig. 5-shaped
// values (tdp in percentage points: mean 0.1, σ 1) at a fig5@2000 and a
// fig5@50000 stream's length. Each iteration copies the unsorted values
// in first.
func BenchmarkSummarize(b *testing.B) {
	for _, n := range []int{2000, 50000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			vals := sortInput(rand.New(rand.NewSource(2015)), n, 0)
			work := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, vals)
				Summarize(work)
			}
		})
	}
}
