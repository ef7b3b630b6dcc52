// Sharded execution and replay over the block scheduler. A ShardRun
// restricts every engine invocation of a run to the shard's contiguous
// block sub-range and captures the per-block StreamRecords as they are
// emitted (in block order, so the capture is always a contiguous,
// checkpointable prefix). A Replay is the reducer's side: it holds the
// reassembled full record set of every stream and feeds the engine the
// recorded blocks instead of executing trials, so reduce(shards) runs
// the exact left-fold of the single-process path — bit-identical by
// construction, at any shard partition and any per-shard worker count.
//
// Streams are identified by invocation order: workload code calls the
// engine in a deterministic sequence (it is ordinary sequential Go), so
// the k-th engine invocation of the reduce run corresponds to the k-th
// captured stream of every shard. Each stream carries a header (kind,
// observable count, sample budget, seed, PRNG family, collect mode)
// that is validated on both resume and replay, so a drifted workload or
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

// capturedStream is one engine invocation's capture: the stream header
// plus the contiguous record prefix [lo, lo+len(recs)) of the shard's
// block range [lo,hi).
type capturedStream struct {
	header streamHeader
	lo, hi int
	recs   []StreamRecord
}

// ShardRun captures a shard's partial aggregates. Install it via
// Config.Shard; every RunVector*/RunVectorPaired invocation under that
// config then executes only the shard's block range and appends its
// records here. The zero value is not usable — construct with
// NewShardRun or ResumeShardRun.
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

	streams []*capturedStream
	begun   int // streams begun by the current execution
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
	for i, ps := range p.streams {
		lo, hi := spec.blockRange(ps.header.nblocks())
		if len(ps.recs) > hi-lo {
			return nil, fmt.Errorf("mc: checkpoint stream %d holds %d records, shard range has %d blocks", i, len(ps.recs), hi-lo)
		}
		for k, rec := range ps.recs {
			if rec.Block != lo+k {
				return nil, fmt.Errorf("mc: checkpoint stream %d is not a contiguous prefix (record %d covers block %d, want %d)", i, k, rec.Block, lo+k)
			}
		}
		sr.streams = append(sr.streams, &capturedStream{header: ps.header, lo: lo, hi: hi, recs: ps.recs})
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
func (sr *ShardRun) Frontier() (done, total int) {
	for _, st := range sr.streams {
		n := st.header.Samples
		done += trialsIn(st.lo, st.lo+len(st.recs), n)
		total += trialsIn(st.lo, st.hi, n)
	}
	return done, total
}

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
// a resumed stream is revalidated and continued after its frontier, a
// new stream is appended. Called once per engine invocation, in order.
func (sr *ShardRun) beginStream(hdr streamHeader) (*capturedStream, error) {
	lo, hi := sr.spec.blockRange(hdr.nblocks())
	i := sr.begun
	sr.begun++
	if i < len(sr.streams) {
		st := sr.streams[i]
		if st.header != hdr {
			return nil, fmt.Errorf("mc: resume stream %d does not match the checkpoint (run %+v, checkpoint %+v)", i, hdr, st.header)
		}
		return st, nil
	}
	st := &capturedStream{header: hdr, lo: lo, hi: hi, recs: make([]StreamRecord, 0, hi-lo)}
	sr.streams = append(sr.streams, st)
	return st, nil
}

// replayStream is one stream's complete record set, block order.
type replayStream struct {
	header streamHeader
	recs   []StreamRecord
}

// Replay feeds recorded blocks back through the engine. Install it via
// Config.Replay; every engine invocation then validates its stream
// header against the recording and folds the recorded blocks instead of
// executing trials. Construct with NewReplay.
type Replay struct {
	streams []replayStream
	next    int
}

// NewReplay assembles the reducer's replay from one complete shard set:
// parts[i] must be shard i's payload out of len(parts) shards of the
// same run. Every stream must be covered exactly — headers equal across
// shards, each shard contributing its full block range — or the
// assembly fails.
func NewReplay(parts []*ShardPayload) (*Replay, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("mc: no shard payloads")
	}
	count := len(parts)
	ns := len(parts[0].streams)
	for i, p := range parts {
		if len(p.streams) != ns {
			return nil, fmt.Errorf("mc: shard %d holds %d streams, shard 0 holds %d", i, len(p.streams), ns)
		}
	}
	rp := &Replay{streams: make([]replayStream, ns)}
	for s := 0; s < ns; s++ {
		hdr := parts[0].streams[s].header
		nblocks := hdr.nblocks()
		recs := make([]StreamRecord, nblocks)
		for i, p := range parts {
			ps := p.streams[s]
			if ps.header != hdr {
				return nil, fmt.Errorf("mc: shard %d stream %d header differs from shard 0 (%+v vs %+v)", i, s, ps.header, hdr)
			}
			lo, hi := (ShardSpec{Index: i, Count: count}).blockRange(nblocks)
			if len(ps.recs) != hi-lo {
				return nil, fmt.Errorf("mc: shard %d stream %d is incomplete: %d of %d blocks recorded", i, s, len(ps.recs), hi-lo)
			}
			for k, rec := range ps.recs {
				if rec.Block != lo+k {
					return nil, fmt.Errorf("mc: shard %d stream %d record %d covers block %d, want %d", i, s, k, rec.Block, lo+k)
				}
				recs[rec.Block] = rec
			}
		}
		rp.streams[s] = replayStream{header: hdr, recs: recs}
	}
	return rp, nil
}

// nextStream hands the next recorded stream to an engine invocation,
// validating that the reducer's re-executed workload asked for the same
// computation the shards ran.
func (rp *Replay) nextStream(hdr streamHeader) ([]StreamRecord, error) {
	if rp.next >= len(rp.streams) {
		return nil, fmt.Errorf("mc: replay exhausted after %d streams — the run requests more engine invocations than the artifacts recorded", len(rp.streams))
	}
	st := rp.streams[rp.next]
	rp.next++
	if st.header != hdr {
		return nil, fmt.Errorf("mc: replay stream %d does not match the recording (run %+v, artifact %+v)", rp.next-1, hdr, st.header)
	}
	return st.recs, nil
}

// Done reports whether every recorded stream was consumed — a leftover
// stream means the reduce run diverged from the workload that produced
// the artifacts.
func (rp *Replay) Done() error {
	if rp.next != len(rp.streams) {
		return fmt.Errorf("mc: replay consumed %d of %d recorded streams — the artifacts belong to a different workload execution", rp.next, len(rp.streams))
	}
	return nil
}

// ShardPayload is the decoded body of a shard artifact or checkpoint:
// every captured stream's header and contiguous record prefix.
type ShardPayload struct {
	streams []payloadStream
}

type payloadStream struct {
	header streamHeader
	recs   []StreamRecord
}

// Frontier reports the payload's trial progress for the given shard
// coordinates — ShardRun.Frontier for an artifact at rest, which is how
// an external observer (the serve layer resuming a checkpoint a drained
// predecessor left) derives progress without attaching to the run.
func (p *ShardPayload) Frontier(spec ShardSpec) (done, total int) {
	for _, ps := range p.streams {
		lo, hi := spec.blockRange(ps.header.nblocks())
		n := ps.header.Samples
		done += trialsIn(lo, lo+len(ps.recs), n)
		total += trialsIn(lo, hi, n)
	}
	return done, total
}

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
	p := &ShardPayload{streams: make([]payloadStream, 0, ns)}
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
		p.streams = append(p.streams, payloadStream{header: h, recs: recs})
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("mc: %d trailing bytes after shard payload", r.Rest())
	}
	return p, nil
}
