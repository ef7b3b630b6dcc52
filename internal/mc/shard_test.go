package mc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"mpsram/internal/stats"
)

// encodeResult renders a VectorResult through the stats codecs — the
// NaN-safe canonical form used for bit-identity comparisons.
func encodeResult(r *VectorResult) []byte {
	var b []byte
	for _, w := range r.Stats {
		b = w.AppendBinary(b)
	}
	for _, q := range r.Quantiles {
		b = appendSketch(b, q)
	}
	for _, vs := range r.Values {
		for _, v := range vs {
			b = stats.AppendF64(b, v)
		}
	}
	b = append(b, byte(r.Rejected), byte(r.Rejected>>8))
	return b
}

// encodePayload returns the bytes WritePayload writes for sr.
func encodePayload(sr *ShardRun) []byte {
	var b bytes.Buffer
	if err := sr.WritePayload(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// payloadReader reads b as one payload.
func payloadReader(b []byte) *stats.CodecReader {
	return stats.NewCodecReader(bytes.NewReader(b), len(b))
}

// decodePayload decodes b as one payload.
func decodePayload(b []byte) (*ShardPayload, error) { return DecodeShardPayload(payloadReader(b)) }

// shardedRun executes cfg as `count` shards with the given worker count,
// round-trips every artifact through the payload codec, and reduces.
func shardedRun(t *testing.T, cfg Config, count, workers, nobs int, f VectorFunc) *VectorResult {
	t.Helper()
	parts := make([]*stats.CodecReader, count)
	for i := 0; i < count; i++ {
		sr, err := NewShardRun(ShardSpec{Index: i, Count: count})
		if err != nil {
			t.Fatal(err)
		}
		scfg := cfg
		scfg.Workers = workers
		scfg.Shard = sr
		if _, err := RunVector(context.Background(), scfg, nobs, f); err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
		parts[i] = payloadReader(encodePayload(sr))
	}
	rp, err := NewReplay(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Shard = rp
	res, err := RunVector(context.Background(), rcfg, nobs, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Done(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardReduceBitIdentical is the tentpole gate: reduce(shards) must
// be bit-identical to the single-process run for multiple partitions and
// per-shard worker counts, in both streaming and collect modes.
func TestShardReduceBitIdentical(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		if rng.Float64() < 0.02 {
			return false
		}
		out[0] = rng.NormFloat64()
		out[1] = rng.ExpFloat64()
		return true
	}
	for _, collect := range []bool{false, true} {
		cfg := Config{Samples: 1100, Seed: 7, Collect: collect}
		direct, err := RunVector(context.Background(), cfg, 2, f)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeResult(direct)
		for _, count := range []int{1, 3} {
			for _, workers := range []int{1, 8} {
				got := shardedRun(t, cfg, count, workers, 2, f)
				if !reflect.DeepEqual(encodeResult(got), want) {
					t.Fatalf("collect=%t %d shards × %d workers: reduce diverges from single-process", collect, count, workers)
				}
				if collect && !reflect.DeepEqual(got.Values, direct.Values) {
					t.Fatalf("collect=%t %d shards × %d workers: collected values diverge", collect, count, workers)
				}
			}
		}
	}
}

// TestShardReducePairedBitIdentical covers the control-variate path.
func TestShardReducePairedBitIdentical(t *testing.T) {
	f := func(rng *rand.Rand, y, x []float64) bool {
		v := rng.NormFloat64()
		x[0] = v
		y[0] = 2*v + 0.1*rng.NormFloat64()
		return true
	}
	cfg := Config{Samples: 900, Seed: 3}
	direct, err := RunVectorPaired(context.Background(), cfg, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, c := range direct.CV {
		want = c.AppendBinary(want)
	}
	for _, count := range []int{1, 3} {
		for _, workers := range []int{1, 8} {
			parts := make([]*stats.CodecReader, count)
			for i := 0; i < count; i++ {
				sr, _ := NewShardRun(ShardSpec{Index: i, Count: count})
				scfg := cfg
				scfg.Workers = workers
				scfg.Shard = sr
				if _, err := RunVectorPaired(context.Background(), scfg, 1, f); err != nil {
					t.Fatal(err)
				}
				parts[i] = payloadReader(encodePayload(sr))
			}
			rp, err := NewReplay(parts, nil)
			if err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.Shard = rp
			res, err := RunVectorPaired(context.Background(), rcfg, 1, f)
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			for _, c := range res.CV {
				got = c.AppendBinary(got)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards × %d workers: paired reduce diverges", count, workers)
			}
			if !reflect.DeepEqual(encodeResult(&res.VectorResult), encodeResult(&direct.VectorResult)) {
				t.Fatalf("%d shards × %d workers: paired primary view diverges", count, workers)
			}
		}
	}
}

// TestShardMultiStream: a run comprising several engine invocations (the
// registry norm — exp's Table IV surface runs one stream per option)
// captures and replays each stream by invocation order.
func TestShardMultiStream(t *testing.T) {
	run := func(cfg Config) ([]*VectorResult, error) {
		var out []*VectorResult
		for _, seed := range []int64{11, 12, 13} {
			c := cfg
			c.Seed = seed
			r, err := RunVector(context.Background(), c, 1, func(rng *rand.Rand, o []float64) bool {
				o[0] = rng.NormFloat64()
				return true
			})
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	direct, err := run(Config{Samples: 700})
	if err != nil {
		t.Fatal(err)
	}
	const count = 3
	parts := make([]*stats.CodecReader, count)
	for i := 0; i < count; i++ {
		sr, _ := NewShardRun(ShardSpec{Index: i, Count: count})
		if _, err := run(Config{Samples: 700, Shard: sr}); err != nil {
			t.Fatal(err)
		}
		parts[i] = payloadReader(encodePayload(sr))
	}
	rp, err := NewReplay(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := run(Config{Samples: 700, Shard: rp})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Done(); err != nil {
		t.Fatal(err)
	}
	for s := range direct {
		if !reflect.DeepEqual(encodeResult(reduced[s]), encodeResult(direct[s])) {
			t.Fatalf("stream %d diverges after multi-stream reduce", s)
		}
	}
}

// TestShardCheckpointResume is the kill-mid-run gate at the engine
// boundary: cancel a shard run partway, persist its payload, resume from
// the decoded checkpoint, and require (a) the final artifact equals an
// uninterrupted shard run's bit for bit, and (b) the resumed leg
// re-executes no trial below the checkpoint frontier and every trial at
// or after it exactly once — the torn-block invariant.
func TestShardCheckpointResume(t *testing.T) {
	const samples = 2000
	const seed = 5
	plain := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}

	// Uninterrupted reference shard run.
	ref, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
	if _, err := RunVector(context.Background(), Config{Samples: samples, Seed: seed, Workers: 2, Shard: ref}, 1, plain); err != nil {
		t.Fatal(err)
	}
	want := encodePayload(ref)

	// Killed run: cancel once the frontier holds two blocks, keep whatever
	// it reached. Progress is serialized with emission, so the frontier is
	// at least 2 of 8 blocks, and each of the 2 workers lands at most one
	// more block after the cancel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
	killed.Progress = func(done, total int) {
		if done >= 2*blockSize {
			cancel()
		}
	}
	_, err := RunVector(ctx, Config{Samples: samples, Seed: seed, Workers: 2, Shard: killed}, 1, plain)
	if err == nil {
		t.Fatal("canceled shard run reported success")
	}
	if !strings.Contains(err.Error(), "canceled after") {
		t.Fatalf("unexpected cancel error: %v", err)
	}
	ckpt, err := decodePayload(encodePayload(killed))
	if err != nil {
		t.Fatal(err)
	}
	frontier := len(ckpt.streams[0].recs)
	if frontier == 0 || frontier >= (samples+blockSize-1)/blockSize {
		t.Fatalf("checkpoint frontier %d not strictly mid-run", frontier)
	}

	// Resume. The trial function fingerprints each trial by its first
	// draw, which is a pure function of (seed, trial index) — so the
	// histogram of executed trials directly witnesses the invariant.
	resumed, err := ResumeShardRun(ShardSpec{Index: 0, Count: 1}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var counts [samples]atomic.Int32
	firstDraw := make(map[float64]int, samples)
	{
		probe := rand.New(rand.NewSource(0))
		for i := 0; i < samples; i++ {
			probe.Seed(trialSeed(seed, i))
			firstDraw[probe.NormFloat64()] = i
		}
	}
	_, err = RunVector(context.Background(), Config{Samples: samples, Seed: seed, Workers: 2, Shard: resumed}, 1, func(rng *rand.Rand, out []float64) bool {
		v := rng.NormFloat64()
		out[0] = v
		if i, ok := firstDraw[v]; ok {
			counts[i].Add(1)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < samples; i++ {
		got := counts[i].Load()
		if i < frontier*blockSize && got != 0 {
			t.Fatalf("trial %d below the frontier (%d blocks) re-executed %d times on resume", i, frontier, got)
		}
		if i >= frontier*blockSize && got != 1 {
			t.Fatalf("trial %d at/after the frontier executed %d times on resume, want exactly 1", i, got)
		}
	}
	if !reflect.DeepEqual(encodePayload(resumed), want) {
		t.Fatal("kill + resume payload differs from the uninterrupted run")
	}
}

// TestShardCancelCountMatchesFrontier pins the partial-progress
// invariant: the trial count in the cancellation error equals the trials
// of the contiguous emitted prefix — the exact set a checkpoint persists
// — never including torn or unmerged out-of-order blocks.
func TestShardCancelCountMatchesFrontier(t *testing.T) {
	const samples = 3000
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int32
	sr, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
	_, err := RunVector(ctx, Config{Samples: samples, Seed: 9, Workers: 4, Shard: sr}, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		if seen.Add(1) == 1200 {
			cancel()
		}
		return true
	})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	p, derr := decodePayload(encodePayload(sr))
	if derr != nil {
		t.Fatal(derr)
	}
	frontierTrials := 0
	for _, rec := range p.streams[0].recs {
		lo, hi := blockBounds(rec.Block, samples)
		frontierTrials += hi - lo
	}
	if want := fmtCanceled(frontierTrials, samples); !strings.Contains(err.Error(), want) {
		t.Fatalf("cancel error %q does not report the frontier count (%s)", err, want)
	}
}

// fmtCanceled renders the engine's cancellation count fragment.
func fmtCanceled(done, total int) string {
	return fmt.Sprintf("canceled after %d of %d trials", done, total)
}

// TestShardPayloadRejects pins the artifact-robustness contract:
// version-mismatched, truncated and trailing-garbage payloads refuse to
// decode.
func TestShardPayloadRejects(t *testing.T) {
	sr, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
	if _, err := RunVector(context.Background(), Config{Samples: 300, Seed: 1, Shard: sr}, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	good := encodePayload(sr)
	if _, err := decodePayload(good); err != nil {
		t.Fatal(err)
	}
	// Layout: the payload version and stream count, then the stream
	// header, which ends in its observable count, sample count and seed
	// (8 bytes each), then the stream's record count.
	const headerAt = 1 + 8
	headerLen := len(appendHeader(nil, streamHeader{}))
	nobsAt := headerAt + headerLen - 3*8
	samplesAt := nobsAt + 8
	recordsAt := headerAt + headerLen
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := decodePayload(bad); err == nil {
		t.Fatal("decoded a foreign payload version")
	}
	bad = append([]byte(nil), good...)
	bad[headerAt] = 99 // stream header version byte
	if _, err := decodePayload(bad); err == nil || !strings.Contains(err.Error(), "stream codec version 99") {
		t.Fatalf("foreign stream header version: %v", err)
	}
	for _, cut := range []int{0, 1, 5, 9, len(good) / 2, len(good) - 1} {
		if _, err := decodePayload(good[:cut]); err == nil {
			t.Fatalf("decoded a %d-byte truncation", cut)
		}
	}
	if _, err := decodePayload(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("decoded trailing garbage")
	}
	// Counts the remaining bytes cannot hold refuse before anything is
	// allocated for them, and the refusal names the corrupted count.
	set := func(b []byte, at int, v uint64) []byte {
		b = append([]byte(nil), b...)
		binary.BigEndian.PutUint64(b[at:], v)
		return b
	}
	// A collecting stream's last record claims a full block of values, but
	// only its own 44 (300 − 256 trials) follow the count.
	csr, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
	if _, err := RunVector(context.Background(), Config{Samples: 300, Seed: 1, Collect: true, Shard: csr}, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	collected := encodePayload(csr)
	valuesAt := len(collected) - 8*(300-blockSize) - 8
	for _, c := range []struct {
		name, want string
		bad        []byte
	}{
		{"observables", fmt.Sprintf("record of %d observables truncated", uint64(1<<62)), set(good, nobsAt, 1<<62)},
		{"records", fmt.Sprintf("stream 0 claims %d records", uint64(1<<50)), set(set(good, samplesAt, 1<<62), recordsAt, 1<<50)},
		{"values", "stats: truncated record encoding", set(collected, valuesAt, blockSize)},
	} {
		if _, err := decodePayload(c.bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("corrupt %s count: %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// rejectingNormals draws one normal per observable and rejects one
// trial in twenty, so collected records hold different numbers of
// values.
func rejectingNormals(rng *rand.Rand, out []float64) bool {
	if rng.Float64() < 0.05 {
		return false
	}
	for j := range out {
		out[j] = rng.NormFloat64()
	}
	return true
}

// codecCaptures returns one finished shard-0-of-1 capture of samples
// trials for each stream kind the payload codec encodes: collected
// values (two observables), P² sketches (three) and paired control
// variates (one).
func codecCaptures(t *testing.T, samples int) map[string]*ShardRun {
	t.Helper()
	paired := func(rng *rand.Rand, y, x []float64) bool {
		v := rng.NormFloat64()
		x[0] = v
		y[0] = 2*v + 0.1*rng.NormFloat64()
		return true
	}
	ctx := context.Background()
	runs := map[string]func(Config) error{
		"collect": func(c Config) error {
			c.Collect = true
			_, err := RunVector(ctx, c, 2, rejectingNormals)
			return err
		},
		"sketch": func(c Config) error { _, err := RunVector(ctx, c, 3, rejectingNormals); return err },
		"paired": func(c Config) error { _, err := RunVectorPaired(ctx, c, 1, paired); return err },
	}
	caps := make(map[string]*ShardRun, len(runs))
	for name, run := range runs {
		sr, err := NewShardRun(ShardSpec{Index: 0, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := run(Config{Samples: samples, Seed: 3, Workers: 2, Shard: sr}); err != nil {
			t.Fatalf("%s capture: %v", name, err)
		}
		caps[name] = sr
	}
	return caps
}

// TestResumedCapturePayload: a capture resumed from a one-block
// checkpoint — its prefix decoded, the rest cut from the capture's own
// arrays — writes, once run to the end, the payload the uninterrupted
// capture writes, for each stream kind.
func TestResumedCapturePayload(t *testing.T) {
	ctx := context.Background()
	paired := func(rng *rand.Rand, y, x []float64) bool {
		y[0], x[0] = rng.NormFloat64(), rng.NormFloat64()
		return true
	}
	runs := map[string]func(Config) error{
		"collect": func(c Config) error {
			c.Collect = true
			_, err := RunVector(ctx, c, 2, rejectingNormals)
			return err
		},
		"sketch": func(c Config) error { _, err := RunVector(ctx, c, 3, rejectingNormals); return err },
		"paired": func(c Config) error { _, err := RunVectorPaired(ctx, c, 1, paired); return err },
	}
	spec := ShardSpec{Index: 0, Count: 1}
	for name, run := range runs {
		whole, _ := NewShardRun(spec)
		if err := run(Config{Samples: 700, Seed: 3, Shard: whole}); err != nil {
			t.Fatal(err)
		}
		want := encodePayload(whole)
		ckpt, err := decodePayload(want)
		if err != nil {
			t.Fatal(err)
		}
		ckpt.streams[0].recs = ckpt.streams[0].recs[:1]
		resumed, err := ResumeShardRun(spec, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(Config{Samples: 700, Seed: 3, Workers: 2, Shard: resumed}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodePayload(resumed), want) {
			t.Errorf("%s: resumed capture writes a different payload from the uninterrupted one", name)
		}
	}
}

// TestDecodedRecordsDoNotAlias: a stream's decoded records share one
// array per field, so each record's slices must end at their own
// capacity — appending to one record's Agg, Quant, CV or Values must not
// write into the next record's.
func TestDecodedRecordsDoNotAlias(t *testing.T) {
	for name, sr := range codecCaptures(t, 700) {
		enc := encodePayload(sr)
		p, err := decodePayload(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ps := range p.streams {
			for _, rec := range ps.recs {
				_ = append(rec.Agg, stats.Welford{})
				_ = append(rec.Quant, QuantileSketch{})
				_ = append(rec.CV, stats.ControlVariate{})
				_ = append(rec.Values, 42)
			}
		}
		again, err := ResumeShardRun(ShardSpec{Index: 0, Count: 1}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(encodePayload(again), enc) {
			t.Errorf("%s: appending to decoded records changed their neighbours", name)
		}
	}
}

// TestPayloadCodecAllocations pins the codec's allocation counts:
// WritePayload to a plain writer makes the same few allocations (its
// bufio.Writer) whatever the record count, and decoding a 196-block
// stream (Fig. 5's 50 000 draws) allocates no more times than decoding a
// 2-block one, for every stream kind.
func TestPayloadCodecAllocations(t *testing.T) {
	small, large := codecCaptures(t, 300), codecCaptures(t, 50000)
	for name := range small {
		var writes, decodes [2]float64
		for i, sr := range []*ShardRun{small[name], large[name]} {
			writes[i] = testing.AllocsPerRun(5, func() {
				if err := sr.WritePayload(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
			enc := encodePayload(sr)
			decodes[i] = testing.AllocsPerRun(5, func() {
				if _, err := decodePayload(enc); err != nil {
					t.Fatal(err)
				}
			})
		}
		if writes[0] != writes[1] || writes[1] > 2 {
			t.Errorf("%s: WritePayload made %v allocations at 2 blocks and %v at 196, want the same, at most 2", name, writes[0], writes[1])
		}
		if decodes[1] > decodes[0] {
			t.Errorf("%s: decoding 196 blocks made %v allocations, 2 blocks %v", name, decodes[1], decodes[0])
		}
	}
}

// TestReplayValidation: the reducer refuses drifted runs — wrong seed,
// missing shards, incomplete artifacts, leftover streams.
func TestReplayValidation(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}
	mkPart := func(i, count int, cfg Config) []*stats.CodecReader {
		sr, _ := NewShardRun(ShardSpec{Index: i, Count: count})
		c := cfg
		c.Shard = sr
		if _, err := RunVector(context.Background(), c, 1, f); err != nil {
			t.Fatal(err)
		}
		return []*stats.CodecReader{payloadReader(encodePayload(sr))}
	}
	cfg := Config{Samples: 600, Seed: 2}

	// Seed drift between artifact and reduce run.
	rp, err := NewReplay(mkPart(0, 1, cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 3
	bad.Shard = rp
	if _, err := RunVector(context.Background(), bad, 1, f); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("seed drift not rejected: %v", err)
	}

	// Missing shard: only one of two partitions supplied.
	if _, err := NewReplay(mkPart(0, 2, cfg), nil); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("missing shard not rejected: %v", err)
	}

	// Leftover stream: the reduce run performs fewer engine invocations
	// than the shards recorded.
	rp2, err := NewReplay(mkPart(0, 1, cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp2.Done(); err == nil || !strings.Contains(err.Error(), "consumed 0 of 1") {
		t.Fatalf("leftover stream not reported: %v", err)
	}

	// Exhausted replay: more invocations than recorded.
	rp3, _ := NewReplay(mkPart(0, 1, cfg), nil)
	good := cfg
	good.Shard = rp3
	if _, err := RunVector(context.Background(), good, 1, f); err != nil {
		t.Fatal(err)
	}
	if _, err := RunVector(context.Background(), good, 1, f); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("exhausted replay not rejected: %v", err)
	}
}

// TestReplayRefusesHugeStream: a payload is outside input, and its
// stream header may claim any sample budget. NewReplay must refuse a
// stream whose records do not cover the claimed blocks before it sizes
// anything by that claim: a decoded header of 2^62 samples and no
// records is an incomplete shard, not a 2^54-record allocation.
func TestReplayRefusesHugeStream(t *testing.T) {
	huge := &ShardRun{spec: ShardSpec{Index: 0, Count: 1}, streams: []*stream{
		{header: streamHeader{Kind: streamPlain, Nobs: 1, Samples: 1 << 62, Seed: 1}},
	}}
	if _, err := NewReplay([]*stats.CodecReader{payloadReader(encodePayload(huge))}, nil); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("replay of a 2^62-sample stream with no records: %v", err)
	}
}

// TestShardEmptyRange: more shards than blocks — the surplus shard's
// range is empty, every shard's run must succeed with an empty (not
// erroring) result, and the reduce must still be exact.
func TestShardEmptyRange(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}
	cfg := Config{Samples: 300, Seed: 4} // 2 blocks, 5 shards
	direct, err := RunVector(context.Background(), cfg, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	const count = 5
	parts := make([]*stats.CodecReader, count)
	for i := 0; i < count; i++ {
		sr, _ := NewShardRun(ShardSpec{Index: i, Count: count})
		c := cfg
		c.Shard = sr
		res, err := RunVector(context.Background(), c, 1, f)
		if err != nil {
			t.Fatalf("shard %d of %d errored: %v", i, count, err)
		}
		if res.Accepted() != 0 || res.Rejected != 0 {
			t.Fatalf("shard %d of %d returned %d accepted and %d rejected trials, want an empty result", i, count, res.Accepted(), res.Rejected)
		}
		parts[i] = payloadReader(encodePayload(sr))
	}
	rp, err := NewReplay(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Shard = rp
	got, err := RunVector(context.Background(), rcfg, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(encodeResult(got), encodeResult(direct)) {
		t.Fatal("empty-range partition diverges from single-process")
	}
}

// TestShardSpecValidate covers the coordinate guards.
func TestShardSpecValidate(t *testing.T) {
	for _, s := range []ShardSpec{{0, 0}, {-1, 3}, {3, 3}, {5, 2}} {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %+v validated", s)
		}
	}
	if err := (ShardSpec{Index: 2, Count: 3}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardFrontierAccessors pins the external progress surface: the
// live ShardRun frontier after a completed run covers exactly the
// shard's trial range, and the at-rest payload (what the serve layer
// reads from a resumed checkpoint) reports the identical frontier.
func TestShardFrontierAccessors(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}
	spec := ShardSpec{Index: 0, Count: 2}
	sr, err := NewShardRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Spec() != spec {
		t.Fatalf("Spec() %+v, want %+v", sr.Spec(), spec)
	}
	cfg := Config{Samples: 1100, Seed: 7, Workers: 1, Shard: sr}
	if _, err := RunVector(context.Background(), cfg, 1, f); err != nil {
		t.Fatal(err)
	}
	done, total := sr.Frontier()
	if done != total || done <= 0 || done >= 1100 {
		t.Fatalf("completed shard frontier (%d, %d): want equal, positive, a strict partial of 1100", done, total)
	}
	p, err := decodePayload(encodePayload(sr))
	if err != nil {
		t.Fatal(err)
	}
	if pd, pt := p.Frontier(spec); pd != done || pt != total {
		t.Fatalf("payload frontier (%d, %d) != live frontier (%d, %d)", pd, pt, done, total)
	}
}

// TestStreamCountPaysForItsBytes: a payload's stream count comes from
// outside, so the decoder allocates for no more streams than the bytes
// left can hold headers for. This 9-byte payload claims 2^20 streams and
// carries none; it must be refused within the allocation bound
// FuzzShardArtifact (internal/core) asserts for any input, 64 bytes per
// input byte plus 16 KiB. Sizing the stream slice by the claim cost
// 8.4 MB.
func TestStreamCountPaysForItsBytes(t *testing.T) {
	data := stats.AppendU64([]byte{payloadCodecVersion}, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodePayload(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated stream header") {
		t.Fatalf("9-byte payload claiming 2^20 streams: %v", err)
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+16<<10); got > bound {
		t.Fatalf("refusing a 9-byte payload allocated %d bytes, want at most %d", got, bound)
	}
}
