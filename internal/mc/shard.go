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
// Streams are identified by invocation order: workload code calls the
// engine in a deterministic sequence (it is ordinary sequential Go), so
// the k-th engine invocation of the reduce run corresponds to the k-th
// captured stream of every shard. Each stream carries a header (kind,
// collect mode, observable count, sample budget, seed) that is
// validated on both resume and replay, so a drifted workload or
// configuration fails loudly instead of folding foreign blocks.
package mc

import (
	"fmt"

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
}

// checkPrefix verifies that st, stream s of shard spec, holds a
// contiguous prefix of the shard's block range — the whole range when
// full is set.
func (st *stream) checkPrefix(spec ShardSpec, s int, full bool) error {
	lo, hi := spec.blockRange(st.header.nblocks())
	switch n := len(st.recs); {
	case n > hi-lo:
		return fmt.Errorf("mc: shard %d stream %d holds %d records, the shard's range has %d blocks", spec.Index, s, n, hi-lo)
	case full && n < hi-lo:
		return fmt.Errorf("mc: shard %d stream %d is incomplete: %d of %d blocks recorded", spec.Index, s, n, hi-lo)
	}
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
	// scheduler and EncodePayload is safe to call from inside one, which
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
// parts[i] must be shard i's payload out of len(parts) shards of the
// same run. Every stream must be covered exactly — headers equal across
// shards, each shard contributing its full block range — or the
// assembly fails. The result is shard 0 of 1 with every stream recorded:
// a run on it executes no trial, folds the recorded blocks, and fails if
// it begins a stream the shards did not record.
func NewReplay(parts []*ShardPayload) (*ShardRun, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("mc: no shard payloads")
	}
	ns := len(parts[0].streams)
	for i, p := range parts {
		if len(p.streams) != ns {
			return nil, fmt.Errorf("mc: shard %d holds %d streams, shard 0 holds %d", i, len(p.streams), ns)
		}
	}
	sr := &ShardRun{spec: ShardSpec{Index: 0, Count: 1}, streams: make([]*stream, ns), replay: true}
	for s := range sr.streams {
		hdr := parts[0].streams[s].header
		for i, p := range parts {
			st := p.streams[s]
			if st.header != hdr {
				return nil, fmt.Errorf("mc: shard %d stream %d header differs from shard 0 (%+v vs %+v)", i, s, st.header, hdr)
			}
			if err := st.checkPrefix(ShardSpec{Index: i, Count: len(parts)}, s, true); err != nil {
				return nil, err
			}
		}
		// The ranges tile the stream in shard order, so concatenating the
		// checked parts yields every block in block order.
		recs := make([]StreamRecord, 0, hdr.nblocks())
		for _, p := range parts {
			recs = append(recs, p.streams[s].recs...)
		}
		sr.streams[s] = &stream{header: hdr, recs: recs}
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

// appendRecord encodes one record under its stream header's layout.
func appendRecord(b []byte, h streamHeader, rec StreamRecord) []byte {
	b = stats.AppendU64(b, uint64(rec.Block))
	b = stats.AppendU64(b, uint64(rec.Rejected))
	switch {
	case h.Kind == streamPaired:
		for _, c := range rec.CV {
			b = c.AppendBinary(b)
		}
		for _, q := range rec.Quant {
			b = appendSketch(b, q)
		}
	case h.Collect:
		for _, w := range rec.Agg {
			b = w.AppendBinary(b)
		}
		b = stats.AppendU64(b, uint64(len(rec.Values)))
		for _, v := range rec.Values {
			b = stats.AppendF64(b, v)
		}
	default:
		for _, w := range rec.Agg {
			b = w.AppendBinary(b)
		}
		for _, q := range rec.Quant {
			b = appendSketch(b, q)
		}
	}
	return b
}

// EncodePayload serializes the capture's current state — every stream's
// contiguous record prefix. Safe to call from the Checkpoint callback
// (the scheduler serializes it with record emission) and after the run
// returns; the encoding is a valid resume/reduce payload either way. The
// buffer is allocated once, at payloadSize, so a checkpoint costs one
// allocation of the payload's size.
func (sr *ShardRun) EncodePayload() []byte {
	b := make([]byte, 0, sr.payloadSize())
	b = append(b, payloadCodecVersion)
	b = stats.AppendU64(b, uint64(len(sr.streams)))
	for _, st := range sr.streams {
		b = appendHeader(b, st.header)
		b = stats.AppendU64(b, uint64(len(st.recs)))
		for _, rec := range st.recs {
			b = appendRecord(b, st.header, rec)
		}
	}
	return b
}

// payloadSize returns the exact length of EncodePayload's output. Every
// record of a stream encodes the same fixed part (its block and reject
// counts and one accumulator set per observable) plus eight bytes per
// collected value. The fixed part is measured by encoding the stream's
// first record without its values, so the size follows the encoder. The
// measurement is encoded into a stack array, which a record of more than
// about six observables outgrows into one heap allocation per stream.
func (sr *ShardRun) payloadSize() int {
	var scratch [4096]byte
	n := 1 + 8
	for _, st := range sr.streams {
		n += len(appendHeader(scratch[:0], st.header)) + 8
		if len(st.recs) == 0 {
			continue
		}
		first := st.recs[0]
		first.Values = nil
		n += len(st.recs) * len(appendRecord(scratch[:0], st.header, first))
		for _, rec := range st.recs {
			n += 8 * len(rec.Values)
		}
	}
	return n
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

// Encoded sizes of the per-observable accumulators, taken from their
// encoders: a stream's arrays never hold more elements than the bytes
// left to decode can encode.
var (
	welfordBytes = len(stats.Welford{}.AppendBinary(nil))
	sketchBytes  = len(appendSketch(nil, QuantileSketch{}))
	cvBytes      = len(stats.ControlVariate{}.AppendBinary(nil))
)

// streamArrays hold one stream's decoded per-record slices: each field is
// one backing array that decodeRecord cuts every record's slice from.
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
// make the decoder allocate more than it was given.
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

// DecodeShardPayload parses an encoded payload, rejecting version
// mismatches, truncations and trailing garbage.
func DecodeShardPayload(data []byte) (*ShardPayload, error) {
	r := stats.NewCodecReader(data)
	if v := r.U8("shard payload"); r.Err() == nil && v != payloadCodecVersion {
		return nil, fmt.Errorf("mc: shard payload version %d, want %d", v, payloadCodecVersion)
	}
	ns := int(r.U64("shard payload"))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ns < 0 || ns > 1<<20 {
		return nil, fmt.Errorf("mc: corrupt shard payload (%d streams)", ns)
	}
	p := &ShardPayload{streams: make([]*stream, 0, ns)}
	for s := 0; s < ns; s++ {
		h, err := decodeHeader(r)
		if err != nil {
			return nil, err
		}
		nrecs := int(r.U64("shard payload"))
		if err := r.Err(); err != nil {
			return nil, err
		}
		if nrecs < 0 || nrecs > h.nblocks() {
			return nil, fmt.Errorf("mc: stream %d holds %d records for %d blocks", s, nrecs, h.nblocks())
		}
		// A record opens with its block and reject counts (16 bytes): a
		// count the remaining bytes cannot hold is corrupt, refused before
		// anything is allocated for it.
		if nrecs > r.Rest()/16 {
			return nil, fmt.Errorf("mc: stream %d claims %d records in %d bytes", s, nrecs, r.Rest())
		}
		arrs := newStreamArrays(h, nrecs, r.Rest())
		recs := make([]StreamRecord, 0, nrecs)
		for k := 0; k < nrecs; k++ {
			rec, err := decodeRecord(r, h, &arrs)
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		}
		p.streams = append(p.streams, &stream{header: h, recs: recs})
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("mc: %d trailing bytes after shard payload", r.Rest())
	}
	return p, nil
}
