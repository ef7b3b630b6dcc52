package stats

import (
	"bytes"
	"math/rand"
	"testing"
)

// The codec fuzz targets gate the shard/checkpoint bit-identity
// contract: for every accumulator, decode(encode(x)) followed by Merge
// must be bit-identical to Merge without the serialization round trip
// (and the encodings themselves must be stable). Comparisons run on the
// canonical byte form, which is NaN-safe where struct equality is not.

// FuzzWelfordCodec: random streams, arbitrary split; round-tripping
// either side through the codec must not perturb a single bit of the
// merged accumulator.
func FuzzWelfordCodec(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(100))
	f.Add(int64(2015), uint8(2), uint16(1))
	f.Add(int64(-7), uint8(3), uint16(4000))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, nRaw uint16) {
		n := int(nRaw) % 4000 // zero-observation accumulators included
		rng := rand.New(rand.NewSource(seed))
		vals := fuzzStream(rng, shape, n)
		split := 0
		if n > 0 {
			split = rng.Intn(n + 1)
		}
		var lo, hi Welford
		for i, v := range vals {
			if i < split {
				lo.Add(v)
			} else {
				hi.Add(v)
			}
		}
		// Round trip both sides.
		var lo2, hi2 Welford
		lob := lo.AppendBinary(nil)
		hib := hi.AppendBinary(nil)
		if err := decode(lob, &lo2); err != nil {
			t.Fatal(err)
		}
		if err := decode(hib, &hi2); err != nil {
			t.Fatal(err)
		}
		lo2b := lo2.AppendBinary(nil)
		if !bytes.Equal(lob, lo2b) {
			t.Fatal("Welford re-encoding drifted")
		}
		direct := lo
		direct.Merge(hi)
		tripped := lo2
		tripped.Merge(hi2)
		db := direct.AppendBinary(nil)
		tb := tripped.AppendBinary(nil)
		if !bytes.Equal(db, tb) {
			t.Fatalf("merge after codec round trip is not bit-identical:\n direct  %x\n tripped %x", db, tb)
		}
	})
}

// FuzzP2Codec: the sketch's full marker state (including pre-formation
// raw values and desired positions) must survive the codec bit-exactly,
// and merging decoded sketches must match merging the originals.
func FuzzP2Codec(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(100), uint8(1))
	f.Add(int64(2015), uint8(1), uint16(3), uint8(0))
	f.Add(int64(-9), uint8(2), uint16(1000), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, nRaw uint16, pSel uint8) {
		n := int(nRaw) % 4000
		p := []float64{0.05, 0.5, 0.95}[int(pSel)%3]
		rng := rand.New(rand.NewSource(seed))
		vals := fuzzStream(rng, shape, n)
		split := 0
		if n > 0 {
			split = rng.Intn(n + 1)
		}
		lo, hi := NewP2(p), NewP2(p)
		for i, v := range vals {
			if i < split {
				lo.Add(v)
			} else {
				hi.Add(v)
			}
		}
		lob := lo.AppendBinary(nil)
		hib := hi.AppendBinary(nil)
		var lo2, hi2 P2
		if err := decode(lob, &lo2); err != nil {
			t.Fatal(err)
		}
		if err := decode(hib, &hi2); err != nil {
			t.Fatal(err)
		}
		lo2b := lo2.AppendBinary(nil)
		if !bytes.Equal(lob, lo2b) {
			t.Fatal("P2 re-encoding drifted")
		}
		direct := lo
		direct.Merge(hi)
		tripped := lo2
		tripped.Merge(hi2)
		db := direct.AppendBinary(nil)
		tb := tripped.AppendBinary(nil)
		if !bytes.Equal(db, tb) {
			t.Fatalf("P2 merge after codec round trip is not bit-identical (p=%g n=%d split=%d)", p, n, split)
		}
		// Decoded sketches keep absorbing observations identically.
		direct.Add(1.25)
		tripped.Add(1.25)
		db2 := direct.AppendBinary(nil)
		tb2 := tripped.AppendBinary(nil)
		if !bytes.Equal(db2, tb2) {
			t.Fatal("P2 Add after codec round trip diverged")
		}
	})
}

// FuzzControlVariateCodec: paired moments (including the co-moment)
// survive the codec bit-exactly under split-anywhere Merge.
func FuzzControlVariateCodec(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(100))
	f.Add(int64(2015), uint8(1), uint16(2))
	f.Add(int64(33), uint8(3), uint16(256))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, nRaw uint16) {
		n := int(nRaw) % 4000
		rng := rand.New(rand.NewSource(seed))
		xs := fuzzStream(rng, shape, n)
		split := 0
		if n > 0 {
			split = rng.Intn(n + 1)
		}
		var lo, hi ControlVariate
		for i, x := range xs {
			y := 1.5*x - 2 + 0.25*rng.NormFloat64()
			if i < split {
				lo.Add(y, x)
			} else {
				hi.Add(y, x)
			}
		}
		lob := lo.AppendBinary(nil)
		hib := hi.AppendBinary(nil)
		var lo2, hi2 ControlVariate
		if err := decode(lob, &lo2); err != nil {
			t.Fatal(err)
		}
		if err := decode(hib, &hi2); err != nil {
			t.Fatal(err)
		}
		lo2b := lo2.AppendBinary(nil)
		if !bytes.Equal(lob, lo2b) {
			t.Fatal("ControlVariate re-encoding drifted")
		}
		direct := lo
		direct.Merge(hi)
		tripped := lo2
		tripped.Merge(hi2)
		db := direct.AppendBinary(nil)
		tb := tripped.AppendBinary(nil)
		if !bytes.Equal(db, tb) {
			t.Fatalf("ControlVariate merge after codec round trip is not bit-identical (n=%d split=%d)", n, split)
		}
	})
}
