package stats

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// decode reads one encoding from b into d the way the shard payload
// decoder does, through Decode on a CodecReader, and fails on a decode
// error or on bytes left unread.
func decode(b []byte, d interface{ Decode(*CodecReader) }) error {
	r := NewCodecReader(bytes.NewReader(b), len(b))
	d.Decode(r)
	if err := r.Err(); err != nil {
		return err
	}
	if r.Rest() != 0 {
		return fmt.Errorf("%d bytes left after the encoding", r.Rest())
	}
	return nil
}

func TestWelfordCodecRoundTrip(t *testing.T) {
	var w Welford
	for _, v := range []float64{1.5, -2.25, 3.75, 0.125, 1e-300, -1e300} {
		w.Add(v)
	}
	b := w.AppendBinary(nil)
	if len(b) != 41 {
		t.Fatalf("encoded size %d, want 41", len(b))
	}
	var got Welford
	if err := decode(b, &got); err != nil {
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
	if !bytes.Equal(base1.AppendBinary(nil), base2.AppendBinary(nil)) {
		t.Fatal("merge after round trip is not bit-identical")
	}
}

func TestWelfordCodecZeroValue(t *testing.T) {
	var w Welford
	var got Welford
	got.Add(1) // dirty the target; decode must fully overwrite
	if err := decode(w.AppendBinary(nil), &got); err != nil {
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
	b := e.AppendBinary(nil)
	if len(b) != 177 {
		t.Fatalf("encoded size %d, want 177", len(b))
	}
	var got P2
	if err := decode(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip drifted: got %+v want %+v", got, e)
	}
	// Below-formation sketches (raw values still buffered) round-trip too.
	small := NewP2(0.5)
	small.Add(3)
	small.Add(-1)
	sb := small.AppendBinary(nil)
	var sgot P2
	if err := decode(sb, &sgot); err != nil {
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
	b := c.AppendBinary(nil)
	if len(b) != 91 {
		t.Fatalf("encoded size %d, want 91", len(b))
	}
	var got ControlVariate
	if err := decode(b, &got); err != nil {
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
	b := w.AppendBinary(nil)
	b[0] = 99
	if err := decode(b, new(Welford)); err == nil {
		t.Fatal("Welford decoded a foreign version byte")
	}
	e := NewP2(0.5)
	pb := e.AppendBinary(nil)
	pb[0] = 99
	if err := decode(pb, new(P2)); err == nil {
		t.Fatal("P2 decoded a foreign version byte")
	}
	var c ControlVariate
	c.Add(1, 2)
	cb := c.AppendBinary(nil)
	cb[0] = 99
	if err := decode(cb, new(ControlVariate)); err == nil {
		t.Fatal("ControlVariate decoded a foreign version byte")
	}
	// The nested Welford versions inside a ControlVariate are checked too.
	cb2 := c.AppendBinary(nil)
	cb2[1] = 99
	if err := decode(cb2, new(ControlVariate)); err == nil {
		t.Fatal("ControlVariate decoded a foreign nested Welford version")
	}
}

// TestCodecRejectsTruncation pins the truncation contract at every
// prefix length: no partial buffer may decode.
func TestCodecRejectsTruncation(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(-3)
	wb := w.AppendBinary(nil)
	for i := 0; i < len(wb); i++ {
		if err := decode(wb[:i], new(Welford)); err == nil {
			t.Fatalf("Welford decoded a %d-byte truncation", i)
		}
	}
	e := NewP2(0.5)
	for i := 0; i < 9; i++ {
		e.Add(float64(i))
	}
	pb := e.AppendBinary(nil)
	for i := 0; i < len(pb); i++ {
		if err := decode(pb[:i], new(P2)); err == nil {
			t.Fatalf("P2 decoded a %d-byte truncation", i)
		}
	}
	var c ControlVariate
	c.Add(1, 2)
	cb := c.AppendBinary(nil)
	for i := 0; i < len(cb); i++ {
		if err := decode(cb[:i], new(ControlVariate)); err == nil {
			t.Fatalf("ControlVariate decoded a %d-byte truncation", i)
		}
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
	r := NewCodecReader(bytes.NewReader(buf), len(buf))
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
