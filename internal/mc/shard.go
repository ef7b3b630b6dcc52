// Sharded execution over the block scheduler. A ShardRun is the one
// capture every engine invocation runs on: it restricts each stream to
// the shard's contiguous block sub-range and keeps the per-block
// StreamRecords as they are emitted (in block order, so the capture is
// always a contiguous, checkpointable prefix). A direct run is a fresh
// capture of shard 0 of 1, kept in memory; a resumed shard is a capture
// pre-filled from its checkpoint; and the reducer's capture, NewReplay,
// is shard 0 of 1 with every stream already recorded, so it executes no
// trial and folds the recorded blocks — the exact left-fold of the
// single-process path, bit-identical by construction at any shard
// partition and any per-shard worker count.
//
// Each collected value is held once. A capture cuts its records from one
// array per field and stream, and NewReplay decodes stream s of every
// shard in turn into one such array set; the fold of a single-observable
// stream hands its value array back compacted in place. The payload
// codec streams: WritePayload encodes each accumulator straight into a
// buffered writer, and the decoders read a stats.CodecReader within the
// payload's byte budget, so neither builds the payload in memory.
//
// Streams are identified by invocation order: workload code calls the
// engine in a deterministic sequence (it is ordinary sequential Go), so
// the k-th engine invocation of the reduce run corresponds to the k-th
// captured stream of every shard. Each stream carries a header (kind,
// collect mode, observable count, sample budget, seed) that is
// validated on both resume and replay, so a drifted workload or
// configuration fails loudly instead of folding foreign blocks.
package mc

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"mpsram/internal/stats"
)

// ShardSpec assigns one contiguous block sub-range of every stream to a
// shard: shard Index of Count covers blocks [Index·B/Count,
// (Index+1)·B/Count) of a B-block stream. Empty ranges (more shards
// than blocks) are legal and produce empty — but valid — artifacts.
type ShardSpec struct {
	Index, Count int
}

// Validate checks the shard coordinates.
func (s ShardSpec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("mc: shard count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("mc: shard index %d outside [0,%d)", s.Index, s.Count)
	}
	return nil
}

// blockRange returns the block sub-range [lo,hi) this shard owns out of
// nblocks total. Ranges tile [0,nblocks) exactly across all shards.
func (s ShardSpec) blockRange(nblocks int) (lo, hi int) {
	return s.Index * nblocks / s.Count, (s.Index + 1) * nblocks / s.Count
}

// stream is one engine invocation's recording: the stream header plus
// the records of a contiguous prefix of the shard's block range, in
// block order.
type stream struct {
	header streamHeader
	recs   []StreamRecord
	// values is the array a collecting stream's records hold their
	// values in, in block order, when every record was cut from it: a
	// capture's from its first block, a replay's always. The fold
	// compacts a single observable's values in it.
	values []float64
}

// capture cuts the empty records of blocks [first,last), the rest of
// st's range past its recorded prefix, from one fresh array per field
// and returns them. They sit in st.recs' capacity past its length, and
// the scheduler extends st.recs over each as the frontier passes it.
func (st *stream) capture(first, last int) []StreamRecord {
	k, nrun := len(st.recs), last-first
	if cap(st.recs) < k+nrun {
		st.recs = append(make([]StreamRecord, 0, k+nrun), st.recs...)
	}
	arrs := newStreamArrays(st.header, nrun, math.MaxInt)
	if k == 0 {
		st.values = arrs.values
	}
	slots := st.recs[k : k+nrun]
	for j := range slots {
		slots[j] = arrs.cut(st.header, first+j)
	}
	return slots
}

// checkCount verifies that n records fit the block range of stream s
// (header h) in shard spec — and fill it when full is set.
func checkCount(h streamHeader, spec ShardSpec, s, n int, full bool) error {
	lo, hi := spec.blockRange(h.nblocks())
	switch {
	case n > hi-lo:
		return fmt.Errorf("mc: shard %d stream %d holds %d records, the shard's range has %d blocks", spec.Index, s, n, hi-lo)
	case full && n < hi-lo:
		return fmt.Errorf("mc: shard %d stream %d is incomplete: %d of %d blocks recorded", spec.Index, s, n, hi-lo)
	}
	return nil
}

// checkPrefix verifies that st, stream s of shard spec, holds a
// contiguous prefix of the shard's block range — the whole range when
// full is set.
func (st *stream) checkPrefix(spec ShardSpec, s int, full bool) error {
	if err := checkCount(st.header, spec, s, len(st.recs), full); err != nil {
		return err
	}
	lo, _ := spec.blockRange(st.header.nblocks())
	for k, rec := range st.recs {
		if rec.Block != lo+k {
			return fmt.Errorf("mc: shard %d stream %d is not a contiguous prefix (record %d covers block %d, want %d)", spec.Index, s, k, rec.Block, lo+k)
		}
	}
	return nil
}

// frontier reports the trial progress of streams recorded under spec:
// done counts the trials of every recorded block, total the trials of
// every stream's whole block range.
func frontier(spec ShardSpec, streams []*stream) (done, total int) {
	for _, st := range streams {
		lo, hi := spec.blockRange(st.header.nblocks())
		n := st.header.Samples
		done += trialsIn(lo, lo+len(st.recs), n)
		total += trialsIn(lo, hi, n)
	}
	return done, total
}

// ShardRun is the capture a run's engine invocations execute on. Install
// it via Config.Shard; every RunVector*/RunVectorPaired invocation under
// that config then executes only the shard's block range past the
// capture's frontier and appends its records here. The zero value is not
// usable — construct with NewShardRun, ResumeShardRun or NewReplay.
type ShardRun struct {
	spec ShardSpec
	// Checkpoint, if non-nil, is invoked each time a stream's contiguous
	// frontier advances by one block. Calls are serialized by the
	// scheduler and WritePayload is safe to call from inside one, which
	// is exactly how periodic checkpointing is implemented: the callback
	// decides (e.g. by wall clock) whether to persist the current
	// payload.
	Checkpoint func()
	// Progress, if non-nil, is invoked with Frontier()'s values each time
	// the frontier advances, before Checkpoint. Calls are serialized by
	// the scheduler; done is monotone for the life of the capture (resumed
	// records count from the start), total grows as streams begin.
	Progress func(done, total int)

	streams []*stream
	begun   int // streams begun by the current execution
	// replay marks NewReplay's capture: every stream is recorded whole,
	// so no new stream may begin and each goes back to the workload.
	replay bool
}

// NewShardRun prepares a fresh capture for the given shard.
func NewShardRun(spec ShardSpec) (*ShardRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &ShardRun{spec: spec}, nil
}

// ResumeShardRun prepares a capture pre-filled from a checkpoint
// payload: streams resume after their persisted frontier, re-executing
// only blocks the checkpoint had not recorded. Stream headers are
// re-validated against the live run as each stream begins.
func ResumeShardRun(spec ShardSpec, p *ShardPayload) (*ShardRun, error) {
	sr, err := NewShardRun(spec)
	if err != nil {
		return nil, err
	}
	for s, st := range p.streams {
		if err := st.checkPrefix(spec, s, false); err != nil {
			return nil, err
		}
		sr.streams = append(sr.streams, &stream{header: st.header, recs: st.recs})
	}
	return sr, nil
}

// NewReplay assembles the reducer's capture from one complete shard set:
// parts[i] reads shard i's payload out of len(parts) shards of the same
// run, and names[i], when names is not nil, labels the errors its bytes
// raise (a file path, say). Every stream must be covered exactly —
// headers equal across shards, each shard contributing its full block
// range — or the assembly fails. Stream s of every shard is decoded in
// turn into one array set, sized from all the parts' record counts and
// bounded by their bytes, so the replay holds each value once and its
// fold compacts in place. The result is shard 0 of 1 with every stream
// recorded: a run on it executes no trial, folds the recorded blocks,
// and fails if it begins a stream the shards did not record.
func NewReplay(parts []*stats.CodecReader, names []string) (*ShardRun, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("mc: no shard payloads")
	}
	named := func(i int, err error) error {
		if names == nil {
			return err
		}
		return fmt.Errorf("%s: %w", names[i], err)
	}
	ns, capacity := 0, 0
	for i, r := range parts {
		n, c, err := decodeStreamCount(r)
		if err != nil {
			return nil, named(i, err)
		}
		if i == 0 {
			ns, capacity = n, c
		} else if n != ns {
			return nil, fmt.Errorf("mc: shard %d holds %d streams, shard 0 holds %d", i, n, ns)
		}
	}
	sr := &ShardRun{spec: ShardSpec{Index: 0, Count: 1}, streams: make([]*stream, 0, capacity), replay: true}
	nrecs := make([]int, len(parts))
	for s := 0; s < ns; s++ {
		var hdr streamHeader
		total, rest := 0, 0
		for i, r := range parts {
			h, n, err := decodeStreamHead(r, s)
			if err != nil {
				return nil, named(i, err)
			}
			if i == 0 {
				hdr = h
			} else if h != hdr {
				return nil, fmt.Errorf("mc: shard %d stream %d header differs from shard 0 (%+v vs %+v)", i, s, h, hdr)
			}
			if err := checkCount(h, ShardSpec{Index: i, Count: len(parts)}, s, n, true); err != nil {
				return nil, err
			}
			nrecs[i] = n
			total += n
			rest += r.Rest()
		}
		// The ranges tile the stream in shard order, so decoding the parts
		// in turn yields every block in block order.
		arrs := newStreamArrays(hdr, total, rest)
		st := &stream{header: hdr, recs: make([]StreamRecord, 0, total), values: arrs.values}
		for i, r := range parts {
			k := len(st.recs)
			for range nrecs[i] {
				rec, err := decodeRecord(r, hdr, &arrs)
				if err != nil {
					return nil, named(i, err)
				}
				st.recs = append(st.recs, rec)
			}
			part := stream{header: hdr, recs: st.recs[k:]}
			if err := part.checkPrefix(ShardSpec{Index: i, Count: len(parts)}, s, true); err != nil {
				return nil, err
			}
		}
		sr.streams = append(sr.streams, st)
	}
	for i, r := range parts {
		if err := checkDrained(r); err != nil {
			return nil, named(i, err)
		}
	}
	return sr, nil
}

// Spec returns the shard coordinates.
func (sr *ShardRun) Spec() ShardSpec { return sr.spec }

// Frontier reports the capture's overall trial progress: done counts the
// trials of every recorded block (resumed checkpoints included), total
// the trials of every begun stream's full block range. Because streams
// begin lazily, total grows as a multi-stream workload reaches each
// engine invocation — done never exceeds it and never decreases.
func (sr *ShardRun) Frontier() (done, total int) { return frontier(sr.spec, sr.streams) }

// advance is the scheduler's per-block hook: publish the frontier, then
// give the checkpoint callback its chance. Serialized with emission.
func (sr *ShardRun) advance() {
	if sr.Progress != nil {
		sr.Progress(sr.Frontier())
	}
	if sr.Checkpoint != nil {
		sr.Checkpoint()
	}
}

// beginStream matches the next engine invocation against the capture:
// a recorded stream is revalidated and continued after its frontier, a
// new stream is appended. Called once per engine invocation, in order.
func (sr *ShardRun) beginStream(hdr streamHeader) (*stream, error) {
	i := sr.begun
	switch {
	case i < len(sr.streams):
		if st := sr.streams[i]; st.header != hdr {
			return nil, fmt.Errorf("mc: stream %d does not match its recording (run %+v, recorded %+v)", i, hdr, st.header)
		}
	case sr.replay:
		return nil, fmt.Errorf("mc: replay exhausted after %d streams — the run requests more engine invocations than the artifacts recorded", len(sr.streams))
	default:
		lo, hi := sr.spec.blockRange(hdr.nblocks())
		sr.streams = append(sr.streams, &stream{header: hdr, recs: make([]StreamRecord, 0, hi-lo)})
	}
	sr.begun++
	return sr.streams[i], nil
}

// Done reports whether the run began every recorded stream — a leftover
// stream means the reduce run diverged from the workload that produced
// the artifacts.
func (sr *ShardRun) Done() error {
	if sr.begun != len(sr.streams) {
		return fmt.Errorf("mc: replay consumed %d of %d recorded streams — the artifacts belong to a different workload execution", sr.begun, len(sr.streams))
	}
	return nil
}

// ShardPayload is the decoded body of a shard artifact or checkpoint:
// every captured stream's header and contiguous record prefix.
type ShardPayload struct {
	streams []*stream
}

// Frontier reports the payload's trial progress for the given shard
// coordinates — ShardRun.Frontier for an artifact at rest, which is how
// an external observer (the serve layer resuming a checkpoint a drained
// predecessor left) derives progress without attaching to the run.
func (p *ShardPayload) Frontier(spec ShardSpec) (done, total int) { return frontier(spec, p.streams) }

// Payload codec. Like the stats codecs, the format is versioned,
// big-endian, floats as raw IEEE-754 bits; truncated or
// version-mismatched buffers fail loudly.
const (
	payloadCodecVersion = 1
	streamCodecVersion  = 2
)

// appendHeader encodes one stream header (fixed size).
func appendHeader(b []byte, h streamHeader) []byte {
	b = append(b, streamCodecVersion, h.Kind, b2u8(h.Collect))
	b = stats.AppendU64(b, uint64(h.Nobs))
	b = stats.AppendU64(b, uint64(h.Samples))
	b = stats.AppendU64(b, uint64(h.Seed))
	return b
}

func b2u8(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendSketch encodes one QuantileSketch (three P² estimators).
func appendSketch(b []byte, q QuantileSketch) []byte {
	b = q.P05.AppendBinary(b)
	b = q.Median.AppendBinary(b)
	b = q.P95.AppendBinary(b)
	return b
}

// WritePayload writes the capture's current state — every stream's
// contiguous record prefix — to w, through w itself when it is a
// *bufio.Writer and through a new one otherwise. Safe to call from the
// Checkpoint callback (the scheduler serializes it with record emission)
// and after the run returns; the bytes are a valid resume/reduce payload
// either way. Every field is encoded straight into the writer's free
// buffer, so a payload of any size costs the allocations of at most one
// bufio.Writer.
func (sr *ShardRun) WritePayload(w io.Writer) error {
	pw := payloadWriter{bufio.NewWriter(w)}
	pw.Write(stats.AppendU64(append(pw.room(9), payloadCodecVersion), uint64(len(sr.streams))))
	for _, st := range sr.streams {
		pw.Write(stats.AppendU64(appendHeader(pw.room(streamHeadBytes), st.header), uint64(len(st.recs))))
		for _, rec := range st.recs {
			pw.record(st.header, rec)
		}
	}
	return pw.Flush()
}

// payloadWriter encodes the payload into a bufio.Writer's free buffer.
// The writer latches its first error, which Flush reports.
type payloadWriter struct{ *bufio.Writer }

// room returns the writer's empty free buffer, flushed first when less
// than n bytes are free.
func (w payloadWriter) room(n int) []byte {
	if w.Available() < n {
		w.Flush()
	}
	return w.AvailableBuffer()
}

// record encodes one record under its stream header's layout.
func (w payloadWriter) record(h streamHeader, rec StreamRecord) {
	w.Write(stats.AppendU64(stats.AppendU64(w.room(16), uint64(rec.Block)), uint64(rec.Rejected)))
	switch {
	case h.Kind == streamPaired:
		for _, c := range rec.CV {
			w.Write(c.AppendBinary(w.room(cvBytes)))
		}
		w.sketches(rec.Quant)
	case h.Collect:
		w.welfords(rec.Agg)
		w.Write(stats.AppendU64(w.room(8), uint64(len(rec.Values))))
		for vals := rec.Values; len(vals) > 0; {
			b := w.room(8)
			k := min(len(vals), cap(b)/8)
			for _, v := range vals[:k] {
				b = stats.AppendF64(b, v)
			}
			// Only a latched error leaves no room for a value.
			if _, err := w.Write(b); err != nil {
				return
			}
			vals = vals[k:]
		}
	default:
		w.welfords(rec.Agg)
		w.sketches(rec.Quant)
	}
}

func (w payloadWriter) welfords(ws []stats.Welford) {
	for _, a := range ws {
		w.Write(a.AppendBinary(w.room(welfordBytes)))
	}
}

func (w payloadWriter) sketches(qs []QuantileSketch) {
	for _, q := range qs {
		w.Write(appendSketch(w.room(sketchBytes), q))
	}
}

// decodeHeader consumes one stream header.
func decodeHeader(r *stats.CodecReader) (streamHeader, error) {
	var h streamHeader
	if v := r.U8("stream header"); r.Err() == nil && v != streamCodecVersion {
		return h, fmt.Errorf("mc: stream codec version %d, want %d", v, streamCodecVersion)
	}
	h.Kind = r.U8("stream header")
	h.Collect = r.U8("stream header") != 0
	h.Nobs = int(r.U64("stream header"))
	h.Samples = int(r.U64("stream header"))
	h.Seed = int64(r.U64("stream header"))
	if err := r.Err(); err != nil {
		return h, err
	}
	if h.Kind != streamPlain && h.Kind != streamPaired {
		return h, fmt.Errorf("mc: unknown stream kind %d", h.Kind)
	}
	if h.Nobs < 1 || h.Samples < 1 {
		return h, fmt.Errorf("mc: corrupt stream header (nobs=%d samples=%d)", h.Nobs, h.Samples)
	}
	return h, nil
}

// Encoded sizes of a stream header with its record count and of the
// per-observable accumulators, taken from their encoders: a decoder never
// allocates for more of them than the bytes left to decode can encode,
// and the writer keeps that much of its buffer free for each.
var (
	streamHeadBytes = len(appendHeader(nil, streamHeader{})) + 8
	welfordBytes    = len(stats.Welford{}.AppendBinary(nil))
	sketchBytes     = len(appendSketch(nil, QuantileSketch{}))
	cvBytes         = len(stats.ControlVariate{}.AppendBinary(nil))
)

// streamArrays hold one stream's per-record slices: each field is one
// backing array that a capture (cut) or the decoder (decodeRecord) cuts
// every record's slice from, in block order.
type streamArrays struct {
	agg    []stats.Welford
	quant  []QuantileSketch
	cv     []stats.ControlVariate
	values []float64
}

// newStreamArrays sizes the arrays for nrecs records of stream h, whose
// encoding is among the rest bytes left: nrecs times the observables
// (and a full block of values per record when h collects), but never
// more elements than rest bytes can encode, so a corrupt count cannot
// make the decoder allocate more than it was given. A capture, whose
// records are not read from bytes, passes math.MaxInt.
func newStreamArrays(h streamHeader, nrecs, rest int) streamArrays {
	var a streamArrays
	if nrecs == 0 || h.Nobs > rest/8 {
		return a // nothing to decode, or decodeRecord refuses the count
	}
	switch {
	case h.Kind == streamPaired:
		a.cv = make([]stats.ControlVariate, 0, arrayLen(nrecs, h.Nobs, rest/cvBytes))
		a.quant = make([]QuantileSketch, 0, arrayLen(nrecs, h.Nobs, rest/sketchBytes))
	case h.Collect:
		a.agg = make([]stats.Welford, 0, arrayLen(nrecs, h.Nobs, rest/welfordBytes))
		a.values = make([]float64, 0, arrayLen(nrecs, blockSize*h.Nobs, rest/8))
	default:
		a.agg = make([]stats.Welford, 0, arrayLen(nrecs, h.Nobs, rest/welfordBytes))
		a.quant = make([]QuantileSketch, 0, arrayLen(nrecs, h.Nobs, rest/sketchBytes))
	}
	return a
}

// arrayLen returns min(nrecs·per, limit) without overflowing the product.
func arrayLen(nrecs, per, limit int) int {
	if nrecs > limit/per {
		return limit
	}
	return nrecs * per
}

// cut cuts block b's empty record off the arrays: zeroed accumulators
// and, when h collects, an empty window of a whole block's values.
func (a *streamArrays) cut(h streamHeader, b int) StreamRecord {
	rec := StreamRecord{Block: b}
	switch {
	case h.Kind == streamPaired:
		rec.CV = take(&a.cv, h.Nobs)
		rec.Quant = take(&a.quant, h.Nobs)
	case h.Collect:
		rec.Agg = take(&a.agg, h.Nobs)
		rec.Values = take(&a.values, blockSize*h.Nobs)[:0]
	default:
		rec.Agg = take(&a.agg, h.Nobs)
		rec.Quant = take(&a.quant, h.Nobs)
	}
	return rec
}

// take cuts the next n elements off *arr, capacity capped at n, so an
// append to one record's slice cannot overwrite the next record's. An
// array too short for n, which only a corrupt stream reaches, yields a
// fresh slice, and decoding fails on it as it always has.
func take[T any](arr *[]T, n int) []T {
	a := *arr
	if n > cap(a)-len(a) {
		return make([]T, n)
	}
	*arr = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}

// decodeSketches fills qs from the reader and returns it.
func decodeSketches(r *stats.CodecReader, qs []QuantileSketch) []QuantileSketch {
	for j := range qs {
		qs[j].P05.Decode(r)
		qs[j].Median.Decode(r)
		qs[j].P95.Decode(r)
	}
	return qs
}

// decodeWelfords fills ws from the reader and returns it.
func decodeWelfords(r *stats.CodecReader, ws []stats.Welford) []stats.Welford {
	for j := range ws {
		ws[j].Decode(r)
	}
	return ws
}

// decodeRecord consumes one record under the stream header's layout,
// cutting its slices from the stream's arrays.
func decodeRecord(r *stats.CodecReader, h streamHeader, a *streamArrays) (StreamRecord, error) {
	var rec StreamRecord
	rec.Block = int(r.U64("record"))
	rec.Rejected = int(r.U64("record"))
	if err := r.Err(); err != nil {
		return rec, err
	}
	if rec.Block < 0 || rec.Block >= h.nblocks() {
		return rec, fmt.Errorf("mc: record block %d outside stream's %d blocks", rec.Block, h.nblocks())
	}
	if rec.Rejected < 0 || rec.Rejected > blockSize {
		return rec, fmt.Errorf("mc: record rejects %d trials of a %d-trial block", rec.Rejected, blockSize)
	}
	// Every observable encodes at least one 8-byte word; refuse a count
	// the remaining bytes cannot hold before allocating per observable.
	if h.Nobs > r.Rest()/8 {
		return rec, fmt.Errorf("mc: record of %d observables truncated at %d bytes", h.Nobs, r.Rest())
	}
	switch {
	case h.Kind == streamPaired:
		rec.CV = take(&a.cv, h.Nobs)
		for j := range rec.CV {
			rec.CV[j].Decode(r)
		}
		rec.Quant = decodeSketches(r, take(&a.quant, h.Nobs))
	case h.Collect:
		rec.Agg = decodeWelfords(r, take(&a.agg, h.Nobs))
		nvals := int(r.U64("record"))
		if r.Err() == nil && (nvals < 0 || nvals > blockSize*h.Nobs || nvals%h.Nobs != 0) {
			return rec, fmt.Errorf("mc: record holds %d collected values for %d observables of a %d-trial block", nvals, h.Nobs, blockSize)
		}
		if r.Err() == nil && nvals > 0 {
			rec.Values = take(&a.values, nvals)
			for i := range rec.Values {
				rec.Values[i] = r.F64("record")
			}
		}
	default:
		rec.Agg = decodeWelfords(r, take(&a.agg, h.Nobs))
		rec.Quant = decodeSketches(r, take(&a.quant, h.Nobs))
	}
	return rec, r.Err()
}

// decodeStreamCount consumes a payload's version and stream count. It
// also returns the capacity to allocate for the streams: no more than
// the bytes left can hold stream headers for, so a count past them costs
// nothing before decoding refuses it on the first header that does not
// fit.
func decodeStreamCount(r *stats.CodecReader) (ns, capacity int, err error) {
	if v := r.U8("shard payload"); r.Err() == nil && v != payloadCodecVersion {
		return 0, 0, fmt.Errorf("mc: shard payload version %d, want %d", v, payloadCodecVersion)
	}
	ns = int(r.U64("shard payload"))
	if err := r.Err(); err != nil {
		return 0, 0, err
	}
	if ns < 0 || ns > 1<<20 {
		return 0, 0, fmt.Errorf("mc: corrupt shard payload (%d streams)", ns)
	}
	return ns, min(ns, r.Rest()/streamHeadBytes), nil
}

// decodeStreamHead consumes stream s's header and record count.
func decodeStreamHead(r *stats.CodecReader, s int) (streamHeader, int, error) {
	h, err := decodeHeader(r)
	if err != nil {
		return h, 0, err
	}
	nrecs := int(r.U64("shard payload"))
	if err := r.Err(); err != nil {
		return h, 0, err
	}
	if nrecs < 0 || nrecs > h.nblocks() {
		return h, 0, fmt.Errorf("mc: stream %d holds %d records for %d blocks", s, nrecs, h.nblocks())
	}
	// A record opens with its block and reject counts (16 bytes): a
	// count the remaining bytes cannot hold is corrupt, refused before
	// anything is allocated for it.
	if nrecs > r.Rest()/16 {
		return h, 0, fmt.Errorf("mc: stream %d claims %d records in %d bytes", s, nrecs, r.Rest())
	}
	return h, nrecs, nil
}

// checkDrained refuses bytes left in a payload's budget once it decoded.
func checkDrained(r *stats.CodecReader) error {
	if r.Rest() != 0 {
		return fmt.Errorf("mc: %d trailing bytes after shard payload", r.Rest())
	}
	return nil
}

// DecodeShardPayload decodes one payload, the whole of r's budget,
// rejecting version mismatches, truncations and trailing garbage.
func DecodeShardPayload(r *stats.CodecReader) (*ShardPayload, error) {
	ns, capacity, err := decodeStreamCount(r)
	if err != nil {
		return nil, err
	}
	p := &ShardPayload{streams: make([]*stream, 0, capacity)}
	for s := 0; s < ns; s++ {
		h, nrecs, err := decodeStreamHead(r, s)
		if err != nil {
			return nil, err
		}
		arrs := newStreamArrays(h, nrecs, r.Rest())
		st := &stream{header: h, recs: make([]StreamRecord, 0, nrecs)}
		for k := 0; k < nrecs; k++ {
			rec, err := decodeRecord(r, h, &arrs)
			if err != nil {
				return nil, err
			}
			st.recs = append(st.recs, rec)
		}
		p.streams = append(p.streams, st)
	}
	if err := checkDrained(r); err != nil {
		return nil, err
	}
	return p, nil
}
