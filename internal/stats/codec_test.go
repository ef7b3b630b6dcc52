package stats

import (
	"bytes"
	"math"
	"testing"
)

// encodeW/encodeP/encodeC are tiny helpers: the canonical byte form used
// for bit-identity comparisons (NaN-safe, unlike struct equality).
func encodeW(t *testing.T, w Welford) []byte {
	t.Helper()
	b, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWelfordCodecRoundTrip(t *testing.T) {
	var w Welford
	for _, v := range []float64{1.5, -2.25, 3.75, 0.125, 1e-300, -1e300} {
		w.Add(v)
	}
	b := encodeW(t, w)
	if len(b) != WelfordEncodedSize {
		t.Fatalf("encoded size %d, want %d", len(b), WelfordEncodedSize)
	}
	var got Welford
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("round trip drifted: got %+v want %+v", got, w)
	}
	// Merging a decoded accumulator must be bit-identical to merging the
	// original: fold both into the same base and compare encodings.
	var base1, base2 Welford
	base1.Add(42)
	base2.Add(42)
	base1.Merge(w)
	base2.Merge(got)
	if !bytes.Equal(encodeW(t, base1), encodeW(t, base2)) {
		t.Fatal("merge after round trip is not bit-identical")
	}
}

func TestWelfordCodecZeroValue(t *testing.T) {
	var w Welford
	var got Welford
	got.Add(1) // dirty the target; decode must fully overwrite
	if err := got.UnmarshalBinary(encodeW(t, w)); err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("zero-value round trip drifted: %+v", got)
	}
}

func TestP2CodecRoundTrip(t *testing.T) {
	e := NewP2(0.95)
	for i := 0; i < 100; i++ {
		e.Add(float64(i%17) * 1.25)
	}
	b, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != P2EncodedSize {
		t.Fatalf("encoded size %d, want %d", len(b), P2EncodedSize)
	}
	var got P2
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip drifted: got %+v want %+v", got, e)
	}
	// Below-formation sketches (raw values still buffered) round-trip too.
	small := NewP2(0.5)
	small.Add(3)
	small.Add(-1)
	sb, _ := small.MarshalBinary()
	var sgot P2
	if err := sgot.UnmarshalBinary(sb); err != nil {
		t.Fatal(err)
	}
	if sgot != small {
		t.Fatalf("pre-formation round trip drifted: got %+v want %+v", sgot, small)
	}
}

func TestControlVariateCodecRoundTrip(t *testing.T) {
	var c ControlVariate
	for i := 0; i < 64; i++ {
		y := float64(i) * 0.5
		c.Add(y, 2*y+0.125)
	}
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != ControlVariateEncodedSize {
		t.Fatalf("encoded size %d, want %d", len(b), ControlVariateEncodedSize)
	}
	var got ControlVariate
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip drifted: got %+v want %+v", got, c)
	}
}

// TestCodecRejectsVersionMismatch pins the versioning contract: a bumped
// version byte must refuse to decode, never decode silently wrong.
func TestCodecRejectsVersionMismatch(t *testing.T) {
	var w Welford
	w.Add(1)
	b := encodeW(t, w)
	b[0] = 99
	if err := new(Welford).UnmarshalBinary(b); err == nil {
		t.Fatal("Welford decoded a foreign version byte")
	}
	e := NewP2(0.5)
	pb, _ := e.MarshalBinary()
	pb[0] = 99
	if err := new(P2).UnmarshalBinary(pb); err == nil {
		t.Fatal("P2 decoded a foreign version byte")
	}
	var c ControlVariate
	c.Add(1, 2)
	cb, _ := c.MarshalBinary()
	cb[0] = 99
	if err := new(ControlVariate).UnmarshalBinary(cb); err == nil {
		t.Fatal("ControlVariate decoded a foreign version byte")
	}
	// The nested Welford versions inside a ControlVariate are checked too.
	cb2, _ := c.MarshalBinary()
	cb2[1] = 99
	if err := new(ControlVariate).UnmarshalBinary(cb2); err == nil {
		t.Fatal("ControlVariate decoded a foreign nested Welford version")
	}
}

// TestCodecRejectsTruncation pins the truncation contract at every
// prefix length: no partial buffer may decode.
func TestCodecRejectsTruncation(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(-3)
	wb := encodeW(t, w)
	for i := 0; i < len(wb); i++ {
		if err := new(Welford).UnmarshalBinary(wb[:i]); err == nil {
			t.Fatalf("Welford decoded a %d-byte truncation", i)
		}
	}
	e := NewP2(0.5)
	for i := 0; i < 9; i++ {
		e.Add(float64(i))
	}
	pb, _ := e.MarshalBinary()
	for i := 0; i < len(pb); i++ {
		if err := new(P2).UnmarshalBinary(pb[:i]); err == nil {
			t.Fatalf("P2 decoded a %d-byte truncation", i)
		}
	}
	var c ControlVariate
	c.Add(1, 2)
	cb, _ := c.MarshalBinary()
	for i := 0; i < len(cb); i++ {
		if err := new(ControlVariate).UnmarshalBinary(cb[:i]); err == nil {
			t.Fatalf("ControlVariate decoded a %d-byte truncation", i)
		}
	}
}

// TestCodecRejectsTrailingBytes: Unmarshal is strict about length.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	var w Welford
	w.Add(1)
	b := append(encodeW(t, w), 0)
	if err := new(Welford).UnmarshalBinary(b); err == nil {
		t.Fatal("Welford accepted trailing bytes")
	}
}

// TestCodecStreamingDecode: Decode on a shared CodecReader consumes
// exactly one record per call — the shard artifact reader's access
// pattern.
func TestCodecStreamingDecode(t *testing.T) {
	var w1, w2 Welford
	w1.Add(1)
	w2.Add(2)
	w2.Add(5)
	buf := w1.AppendBinary(nil)
	buf = w2.AppendBinary(buf)
	r := NewCodecReader(buf)
	var g1, g2 Welford
	g1.Decode(r)
	g2.Decode(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Rest() != 0 || g1 != w1 || g2 != w2 {
		t.Fatalf("streaming decode drifted: %+v %+v rest=%d", g1, g2, r.Rest())
	}
	if math.IsNaN(g2.Mean()) {
		t.Fatal("decoded mean is NaN")
	}
}
