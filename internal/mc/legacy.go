// The legacy per-trial PRNG: math/rand's default source, reseeded in O(1).
//
// rand.NewSource(s) is Mitchell and Reeds' additive lagged-Fibonacci
// generator. Each draw adds two of its 607 feedback words (lags 607 and
// 273) and writes the sum back over the older one. Its Seed fills all 607
// words from Park and Miller's minimal-standard Lehmer generator
// x ← 48271·x mod (2³¹−1), started at the reduced seed x₀, discarding 20
// steps and then taking three per word:
//
//	word i = x₂₁₊₃ᵢ≪40 ⊕ x₂₂₊₃ᵢ≪20 ⊕ x₂₃₊₃ᵢ ⊕ cooked[i]
//
// That is 1 841 dependent steps of one integer division each, about 13 µs
// per Seed on an Intel Xeon, and the engine reseeds once per trial: on
// math/rand's source, Seed took 90 % of the CPU of an analytic Fig. 5 run.
//
// legacySource draws the same stream bit for bit but its Seed only stores
// x₀. Since x_k = x₀·48271ᵏ mod (2³¹−1), word i is three multiplications
// by a package-level power table, each reduced without division, and a
// draw derives a word the first time it reads it. Only the first 334
// draws after a seed read words no draw has written yet, and a cheap
// trial makes a few dozen draws, so a reseed plus a normal deviate costs
// about 20 ns. TestLegacySourceMatchesMathRand and FuzzLegacySource hold
// it to math/rand's own stream.
package mc

import "math/rand"

// Lagged-Fibonacci and Lehmer constants of math/rand's legacy source.
const (
	lfgLen   = 607             // feedback words (the long lag)
	lfgTap   = 273             // the short lag
	lfgFresh = lfgLen - lfgTap // draws after a seed whose feed word is unwritten
	m31      = 1<<31 - 1       // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271           // the Lehmer multiplier
	zeroSeed = 89482311        // math/rand's substitute for a seed ≡ 0
)

// lehmerPow[i][j] is 48271^(21+3i+j) mod (2³¹−1): the multipliers that
// take x₀ to the three Lehmer states feedback word i is built from.
var lehmerPow = lehmerPowers()

// lfgCooked is math/rand's constant table XORed into every seeded word,
// recovered from rand.NewSource(1)'s stream so math/rand stays its only
// source.
var lfgCooked = cookedTable()

// legacySource implements math/rand.Source64 with the exact stream of
// rand.NewSource(seed). It must be seeded before its first draw.
type legacySource struct {
	x0        uint64 // the reduced seed, in [1, 2³¹−1)
	tap, feed int
	fresh     int // draws left whose feed word is still unwritten
	vec       [lfgLen]int64
}

// Seed resets the stream to rand.NewSource(seed)'s in O(1).
func (s *legacySource) Seed(seed int64) {
	s.tap = 0
	s.feed = lfgFresh
	s.fresh = lfgFresh
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
}

// Uint64 returns the next 64-bit output, as rngSource.Uint64 does.
func (s *legacySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfgLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfgLen
	}
	if s.fresh == 0 {
		x := s.vec[s.feed] + s.vec[s.tap]
		s.vec[s.feed] = x
		return uint64(x)
	}
	// Within the first 334 draws the feed word is always unwritten. The
	// tap word is unwritten until the tap falls below 334 (draw 274);
	// derived, it is stored too, since the feed reaches it after
	// wrapping.
	s.fresh--
	t := s.vec[s.tap]
	if s.tap >= lfgFresh {
		t = seededWord(s.x0, s.tap)
		s.vec[s.tap] = t
	}
	x := seededWord(s.x0, s.feed) + t
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 satisfies math/rand.Source.
func (s *legacySource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// seededWord returns feedback word i as Seed would have left it for the
// reduced seed x0.
func seededWord(x0 uint64, i int) int64 {
	return lehmerBits(x0, i) ^ lfgCooked[i]
}

// lehmerBits returns the Lehmer half of feedback word i for the reduced
// seed x0: x₂₁₊₃ᵢ≪40 ⊕ x₂₂₊₃ᵢ≪20 ⊕ x₂₃₊₃ᵢ.
func lehmerBits(x0 uint64, i int) int64 {
	p := &lehmerPow[i]
	return int64(mulMod31(x0, p[0])<<40 ^ mulMod31(x0, p[1])<<20 ^ mulMod31(x0, p[2]))
}

// mulMod31 returns a·b mod (2³¹−1) for a, b < 2³¹. Since 2³¹ ≡ 1, folding
// the high bits onto the low ones twice and one conditional subtraction
// replace the division.
func mulMod31(a, b uint64) uint64 {
	y := a * b
	y = y&m31 + y>>31
	y = y&m31 + y>>31
	if y >= m31 {
		y -= m31
	}
	return y
}

// lehmerPowers builds lehmerPow.
func lehmerPowers() (pow [lfgLen][3]uint64) {
	p := uint64(1)
	for k := 0; k < 20; k++ {
		p = mulMod31(p, lehmerA)
	}
	for i := range pow {
		for j := range pow[i] {
			p = mulMod31(p, lehmerA)
			pow[i][j] = p
		}
	}
	return pow
}

// cookedTable recovers math/rand's cooked table: the seed-1 words that
// rand.NewSource(1) starts from, XORed with the Lehmer bits Seed(1) put in.
func cookedTable() (cooked [lfgLen]int64) {
	words := initialWords(rand.NewSource(1).(rand.Source64))
	for i := range cooked {
		cooked[i] = words[i] ^ lehmerBits(1, i)
	}
	return cooked
}

// initialWords recovers the 607 feedback words a freshly seeded legacy
// source starts from, out of its first 607 outputs. Draw n (1-based)
// reads the feed word (334−n) mod 607, which no draw has written yet, and
// the tap word 607−n, which draw n−273 wrote for n > 273 and which is
// still a starting word for n ≤ 273. So draws 274–607 give their feed
// words as the difference of two outputs, and those include the tap words
// 334–606 that draws 1–273 then subtract out.
func initialWords(src rand.Source64) (words [lfgLen]int64) {
	var out [lfgLen + 1]int64
	for n := 1; n <= lfgLen; n++ {
		out[n] = int64(src.Uint64())
	}
	feed := func(n int) int { return (lfgFresh - n + lfgLen) % lfgLen }
	for n := lfgTap + 1; n <= lfgLen; n++ {
		words[feed(n)] = out[n] - out[n-lfgTap]
	}
	for n := 1; n <= lfgTap; n++ {
		words[feed(n)] = out[n] - words[lfgLen-n]
	}
	return words
}
