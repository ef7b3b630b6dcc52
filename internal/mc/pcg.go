// The splittable fast-reseed PRNG source behind Config.FastReseed.
//
// The legacy stream reseeds math/rand's additive lagged-Fibonacci source
// per trial. math/rand's own Seed rebuilds the 607-word feedback table
// (~13 µs); the engine draws that stream through legacySource
// (legacy.go), whose Seed is O(1), so a reseed plus one normal draw costs
// ~20 ns. This source is a PCG-64 (XSL-RR 128/64) generator whose Seed is
// two SplitMix64 mixes of the trial seed (~15 ns with the draw): O(1),
// allocation-free, and still giving every trial its own statistically
// independent stream (the "splittable" property the per-trial
// determinism contract needs).
//
// Switching a run to FastReseed changes the drawn sample stream — the
// legacy stream is a compatibility surface for every golden number — so
// the knob is opt-in and results produced under it must be re-baselined
// (see EXPERIMENTS.md).
package mc

import "math/bits"

// pcgSource implements math/rand.Source64 with 128-bit PCG state.
type pcgSource struct {
	hi, lo uint64
}

// PCG-64 default multiplier and increment (O'Neill, PCG paper).
const (
	pcgMulHi = 0x2360ed051fc65da4
	pcgMulLo = 0x4385df649fccf645
	pcgIncHi = 0x5851f42d4c957f2d
	pcgIncLo = 0x14057b7ef767814f
)

// splitmix64 is the finalizing mixer used to expand a 64-bit seed into
// PCG state words.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Seed re-derives the full 128-bit state from seed in O(1) — the whole
// point of the fast-reseed path. Distinct seeds land in distinct,
// well-mixed states; equal seeds reproduce the identical stream.
func (p *pcgSource) Seed(seed int64) {
	p.lo = splitmix64(uint64(seed))
	p.hi = splitmix64(uint64(seed) ^ 0xda3e39cb94b95bdb)
}

// step advances the 128-bit LCG state.
func (p *pcgSource) step() {
	hi, lo := bits.Mul64(p.lo, pcgMulLo)
	hi += p.hi*pcgMulLo + p.lo*pcgMulHi
	lo, carry := bits.Add64(lo, pcgIncLo, 0)
	hi, _ = bits.Add64(hi, pcgIncHi, carry)
	p.lo, p.hi = lo, hi
}

// Uint64 returns the XSL-RR output of the advanced state.
func (p *pcgSource) Uint64() uint64 {
	p.step()
	return bits.RotateLeft64(p.hi^p.lo, -int(p.hi>>58))
}

// Int63 satisfies math/rand.Source.
func (p *pcgSource) Int63() int64 {
	return int64(p.Uint64() >> 1)
}
