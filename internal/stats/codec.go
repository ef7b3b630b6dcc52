// Stable, versioned binary encodings for the mergeable accumulators —
// the serialization surface the shard/checkpoint machinery rests on.
// Every codec round-trips exactly: decode(encode(x)) reproduces the
// accumulator bit for bit (float fields travel as raw IEEE-754 bits,
// never through decimal formatting), so an aggregate that crossed a
// process or machine boundary merges bit-identically to one that never
// left memory. That property is fuzz-gated (FuzzWelfordCodec,
// FuzzP2Codec, FuzzControlVariateCodec) because the distributed
// reducer's whole bit-identity contract collapses if it ever breaks.
//
// Formats are versioned with a leading byte per accumulator; decoding a
// different version or a truncated buffer fails loudly. Changing a
// field layout requires a new version byte — old artifacts must never
// decode silently wrong.
package stats

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Codec version bytes. Bump when the corresponding field layout changes.
const (
	welfordCodecVersion        = 1
	p2CodecVersion             = 1
	controlVariateCodecVersion = 1
)

// AppendU64 / AppendF64 are the primitive writers: fixed-width
// big-endian, floats as raw IEEE-754 bits.
func AppendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func AppendF64(b []byte, v float64) []byte {
	return AppendU64(b, math.Float64bits(v))
}

// CodecReader decodes from a buffered reader within a byte budget: the
// encoding's length, known before decoding starts (a file's size, a
// buffer's length). Reads past the budget fail as truncation, and Rest
// reports what is left of it, so a decoder can refuse a count the
// remaining bytes cannot hold before it allocates for that count.
type CodecReader struct {
	r    *bufio.Reader
	rest int
	err  error
}

// NewCodecReader decodes the next n bytes of r, reading through r itself
// when it is a *bufio.Reader and through a new one otherwise. Reads latch
// the first error; check Err after.
func NewCodecReader(r io.Reader, n int) *CodecReader {
	return &CodecReader{r: bufio.NewReader(r), rest: n}
}

// Err returns the first decode error, if any.
func (r *CodecReader) Err() error { return r.err }

// Rest returns the unconsumed bytes of the budget.
func (r *CodecReader) Rest() int { return r.rest }

// next consumes n bytes and returns them; the slice is valid until the
// next read. A budget or an input too short for n latches a truncation
// error, and an input that fails latches its error.
func (r *CodecReader) next(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if r.rest < n {
		r.err = fmt.Errorf("stats: truncated %s encoding", what)
		return nil
	}
	p, err := r.r.Peek(n)
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("stats: truncated %s encoding", what)
		}
		r.err = err
		return nil
	}
	r.r.Discard(n)
	r.rest -= n
	return p
}

// U8 reads one byte; what names the enclosing record for the error text.
func (r *CodecReader) U8(what string) byte {
	if p := r.next(1, what); p != nil {
		return p[0]
	}
	return 0
}

// U64 reads one big-endian uint64.
func (r *CodecReader) U64(what string) uint64 {
	if p := r.next(8, what); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// F64 reads one float64 from its raw IEEE-754 bits.
func (r *CodecReader) F64(what string) float64 {
	return math.Float64frombits(r.U64(what))
}

// AppendBinary appends the versioned encoding of w to b.
func (w Welford) AppendBinary(b []byte) []byte {
	b = append(b, welfordCodecVersion)
	b = AppendU64(b, uint64(w.n))
	b = AppendF64(b, w.mean)
	b = AppendF64(b, w.m2)
	b = AppendF64(b, w.min)
	b = AppendF64(b, w.max)
	return b
}

// Decode consumes one Welford encoding from the reader.
func (w *Welford) Decode(r *CodecReader) {
	if v := r.U8("Welford"); r.err == nil && v != welfordCodecVersion {
		r.err = fmt.Errorf("stats: Welford codec version %d, want %d", v, welfordCodecVersion)
		return
	}
	w.n = int(r.U64("Welford"))
	w.mean = r.F64("Welford")
	w.m2 = r.F64("Welford")
	w.min = r.F64("Welford")
	w.max = r.F64("Welford")
}

// AppendBinary appends the versioned encoding of e to b.
func (e P2) AppendBinary(b []byte) []byte {
	b = append(b, p2CodecVersion)
	b = AppendF64(b, e.p)
	b = AppendU64(b, uint64(e.n))
	for _, v := range e.q {
		b = AppendF64(b, v)
	}
	for _, v := range e.pos {
		b = AppendF64(b, v)
	}
	for _, v := range e.des {
		b = AppendF64(b, v)
	}
	for _, v := range e.inc {
		b = AppendF64(b, v)
	}
	return b
}

// Decode consumes one P2 encoding from the reader.
func (e *P2) Decode(r *CodecReader) {
	if v := r.U8("P2"); r.err == nil && v != p2CodecVersion {
		r.err = fmt.Errorf("stats: P2 codec version %d, want %d", v, p2CodecVersion)
		return
	}
	e.p = r.F64("P2")
	e.n = int(r.U64("P2"))
	for i := range e.q {
		e.q[i] = r.F64("P2")
	}
	for i := range e.pos {
		e.pos[i] = r.F64("P2")
	}
	for i := range e.des {
		e.des[i] = r.F64("P2")
	}
	for i := range e.inc {
		e.inc[i] = r.F64("P2")
	}
}

// AppendBinary appends the versioned encoding of c to b.
func (c ControlVariate) AppendBinary(b []byte) []byte {
	b = append(b, controlVariateCodecVersion)
	b = c.y.AppendBinary(b)
	b = c.x.AppendBinary(b)
	b = AppendF64(b, c.cxy)
	return b
}

// Decode consumes one ControlVariate encoding from the reader.
func (c *ControlVariate) Decode(r *CodecReader) {
	if v := r.U8("ControlVariate"); r.err == nil && v != controlVariateCodecVersion {
		r.err = fmt.Errorf("stats: ControlVariate codec version %d, want %d", v, controlVariateCodecVersion)
		return
	}
	c.y.Decode(r)
	c.x.Decode(r)
	c.cxy = r.F64("ControlVariate")
}
