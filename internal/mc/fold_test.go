package mc

import (
	"context"
	"runtime"
	"testing"

	"mpsram/internal/stats"
)

// copyingFold is the plain fold as it was before streams held their
// values once: it merges the records in block order and copies every
// collected value out into one fresh slice per observable. The in-place
// fold must reproduce it bit for bit.
func copyingFold(recs []StreamRecord, nobs int, collect bool) *VectorResult {
	res := &VectorResult{Stats: make([]stats.Welford, nobs)}
	if !collect {
		res.Quantiles = make([]QuantileSketch, nobs)
		for j := range res.Quantiles {
			res.Quantiles[j] = newQuantileSketch()
		}
	}
	for _, b := range recs {
		for j := range res.Stats {
			res.Stats[j].Merge(b.Agg[j])
		}
		for j := range b.Quant {
			res.Quantiles[j].merge(b.Quant[j])
		}
		res.Rejected += b.Rejected
	}
	if collect {
		res.Values = make([][]float64, nobs)
		acc := res.Stats[0].N()
		for j := range res.Values {
			res.Values[j] = make([]float64, 0, acc)
		}
		for _, b := range recs {
			for t := 0; t*nobs < len(b.Values); t++ {
				for j := 0; j < nobs; j++ {
					res.Values[j] = append(res.Values[j], b.Values[t*nobs+j])
				}
			}
		}
	}
	return res
}

// TestInPlaceFoldMatchesCopyingFold: the fold that compacts a stream's
// value array in place (one observable) or transposes into one array
// (three) returns, bit for bit, what the copying fold returns on the
// same records — for a direct run at 1, 2 and 3 workers, whose blocks
// reject trials and so leave holes to compact over, and for a 3-shard
// replay, whose decoded records are already packed. Every returned slice
// is capacity-capped.
func TestInPlaceFoldMatchesCopyingFold(t *testing.T) {
	ctx := context.Background()
	for _, nobs := range []int{1, 3} {
		cfg := Config{Samples: 1100, Seed: 11, Collect: true}
		// The records the fold reads, kept by a capture that does not fold.
		capture, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
		ccfg := cfg
		ccfg.Shard = capture
		if _, err := RunVector(ctx, ccfg, nobs, rejectingNormals); err != nil {
			t.Fatal(err)
		}
		want := copyingFold(capture.streams[0].recs, nobs, true)
		if want.Rejected == 0 {
			t.Fatal("no trial was rejected: the fold has nothing to compact")
		}
		check := func(name string, got *VectorResult) {
			t.Helper()
			if string(encodeResult(got)) != string(encodeResult(want)) {
				t.Errorf("nobs %d, %s: the fold diverges from the copying fold", nobs, name)
			}
			for j, v := range got.Values {
				if len(v) != cap(v) {
					t.Errorf("nobs %d, %s: Values[%d] has length %d and capacity %d", nobs, name, j, len(v), cap(v))
				}
			}
		}
		for _, workers := range []int{1, 2, 3} {
			dcfg := cfg
			dcfg.Workers = workers
			got, err := RunVector(ctx, dcfg, nobs, rejectingNormals)
			if err != nil {
				t.Fatal(err)
			}
			check("direct run", got)
		}
		check("3-shard replay", shardedRun(t, cfg, 3, 2, nobs, rejectingNormals))
	}
}

// TestCollectedValuesHeldOnce bounds what a single-observable collecting
// run allocates at 9 bytes per trial plus a constant: the 8 bytes of its
// value, once, and the per-block records and accumulators. Both a direct
// run and the reduce half of a 3-shard run — NewReplay decoding the
// payloads and the replay's fold — are measured; each used to hold every
// value twice (a block's copy and the fold's, or the decoded record's and
// the fold's).
func TestCollectedValuesHeldOnce(t *testing.T) {
	const samples = 100000
	const perTrial, slack = 9, 64 << 10
	ctx := context.Background()
	cfg := Config{Samples: samples, Seed: 5, Workers: 2, Collect: true}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	bound := uint64(perTrial*samples + slack)

	check := func(name string, got uint64) {
		t.Helper()
		t.Logf("%s: %d bytes, %.2f per trial", name, got, float64(got)/samples)
		if got > bound {
			t.Errorf("%s of %d trials allocated %d bytes, want at most %d", name, samples, got, bound)
		}
	}

	check("direct run", allocated(func() {
		if _, err := RunVector(ctx, cfg, 1, rejectingNormals); err != nil {
			t.Fatal(err)
		}
	}))

	parts := make([]*stats.CodecReader, 3)
	for i := range parts {
		sr, _ := NewShardRun(ShardSpec{Index: i, Count: len(parts)})
		scfg := cfg
		scfg.Shard = sr
		if _, err := RunVector(ctx, scfg, 1, rejectingNormals); err != nil {
			t.Fatal(err)
		}
		parts[i] = payloadReader(encodePayload(sr))
	}
	check("3-shard reduce", allocated(func() {
		rp, err := NewReplay(parts, nil)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Shard = rp
		if _, err := RunVector(ctx, rcfg, 1, rejectingNormals); err != nil {
			t.Fatal(err)
		}
	}))
}
