package mc

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mpsram/internal/stats"
)

// TestRunVectorSingleBlock pins the single-block degenerate case
// (samples < blockSize): the merged streaming state must equal a directly
// built accumulator — the block merge is a pure copy, no distortion.
func TestRunVectorSingleBlock(t *testing.T) {
	const n = 100 // < blockSize
	cfg := Config{Samples: n, Seed: 7, Workers: 4}
	res, err := RunVector(context.Background(), cfg, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantW stats.Welford
	wantQ := newQuantileSketch()
	rng := rand.New(rand.NewSource(0))
	for i := 0; i < n; i++ {
		rng.Seed(trialSeed(cfg.Seed, i))
		v := rng.NormFloat64()
		wantW.Add(v)
		wantQ.P05.Add(v)
		wantQ.Median.Add(v)
		wantQ.P95.Add(v)
	}
	if !reflect.DeepEqual(res.Stats[0], wantW) {
		t.Fatalf("single-block Welford differs: %+v vs %+v", res.Stats[0], wantW)
	}
	if !reflect.DeepEqual(res.Quantiles[0], wantQ) {
		t.Fatal("single-block quantile sketch differs from a directly built one")
	}
}

// TestRunVectorRejectedOnlyBlocks: a block whose every trial is rejected
// contributes empty accumulators and empty sketches; merging them must be
// a no-op and the final summary NaN-free. A trial cannot see its own
// index, but its first draw is a pure function of (Seed, i), so the test
// precomputes the draws of block 0 and rejects exactly those.
func TestRunVectorRejectedOnlyBlocks(t *testing.T) {
	const seed = 3
	rejectSet := make(map[float64]bool, 256)
	rng := rand.New(rand.NewSource(0))
	for i := 0; i < 256; i++ {
		rng.Seed(trialSeed(seed, i))
		rejectSet[rng.NormFloat64()] = true
	}
	res, err := RunVector(context.Background(), Config{Samples: 2 * 256, Seed: seed, Workers: 2}, 1,
		func(rng *rand.Rand, out []float64) bool {
			v := rng.NormFloat64()
			if rejectSet[v] {
				return false
			}
			out[0] = v
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 256 {
		t.Fatalf("rejected %d, want the whole first block (256)", res.Rejected)
	}
	if got := res.Accepted(); got != 256 {
		t.Fatalf("accepted %d, want 256", got)
	}
	s := res.Summary(0)
	for name, v := range map[string]float64{
		"mean": s.Mean, "std": s.Std, "min": s.Min, "max": s.Max,
		"p05": s.P05, "median": s.Median, "p95": s.P95,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("summary %s is %v after a rejected-only block", name, v)
		}
	}
}

// TestRunRejections pins where rejections end a run now that runStream
// owns the verdict for every path: partial rejection is counted, never
// an error; a whole stream whose every trial is rejected errors both
// direct and replayed, while each shard capture of that stream returns
// an empty view and no error.
func TestRunRejections(t *testing.T) {
	half := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.Float64()
		return out[0] > 0.5
	}
	res, err := RunVector(context.Background(), Config{Samples: 100, Seed: 1, Collect: true}, 1, half)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 || res.Rejected == 100 || len(res.Values[0])+res.Rejected != 100 {
		t.Fatalf("rejected %d accepted %d: counts do not add up to 100", res.Rejected, len(res.Values[0]))
	}

	none := func(*rand.Rand, []float64) bool { return false }
	cfg := Config{Samples: 600, Seed: 1}
	const allRejected = "every one of 600 trials was rejected"
	if _, err := RunVector(context.Background(), cfg, 1, none); err == nil || !strings.Contains(err.Error(), allRejected) {
		t.Fatalf("direct all-rejected run: %v", err)
	}
	parts := make([]*stats.CodecReader, 2)
	for i := range parts {
		sr, err := NewShardRun(ShardSpec{Index: i, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		scfg := cfg
		scfg.Shard = sr
		view, err := RunVector(context.Background(), scfg, 1, none)
		if err != nil || view.Accepted() != 0 || view.Rejected != 0 {
			t.Fatalf("shard %d of an all-rejected stream: %v (view %+v)", i, err, view)
		}
		parts[i] = payloadReader(encodePayload(sr))
	}
	rp, err := NewReplay(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shard = rp
	if _, err := RunVector(context.Background(), cfg, 1, none); err == nil || !strings.Contains(err.Error(), allRejected) {
		t.Fatalf("replayed all-rejected stream: %v", err)
	}
}

// TestRunVectorObservableCountBounds: nobs < 1 must error, not panic —
// including negative values.
func TestRunVectorObservableCountBounds(t *testing.T) {
	for _, nobs := range []int{0, -1, -100} {
		if _, err := RunVector(context.Background(), Config{Samples: 4, Seed: 1}, nobs, gauss1); err == nil {
			t.Fatalf("nobs=%d accepted", nobs)
		}
	}
}

// TestRunVectorAllRejectedCollect: the zero-accepted error path with value
// collection on (the Values assembly must not run on an empty result).
func TestRunVectorAllRejectedCollect(t *testing.T) {
	_, err := RunVector(context.Background(), Config{Samples: 300, Seed: 1, Collect: true, Workers: 4}, 2,
		func(rng *rand.Rand, out []float64) bool { return false })
	if err == nil {
		t.Fatal("all-rejected collecting run must error")
	}
}

// TestQuantileSketchMergeEdges drives QuantileSketch.merge through the
// degenerate combinations the block merge can produce: empty+empty,
// empty+formed, formed+empty, and below-formation pairs.
func TestQuantileSketchMergeEdges(t *testing.T) {
	build := func(vals ...float64) QuantileSketch {
		q := newQuantileSketch()
		for _, v := range vals {
			q.P05.Add(v)
			q.Median.Add(v)
			q.P95.Add(v)
		}
		return q
	}

	// empty + empty: stays empty, quantile NaN by contract.
	e := build()
	e.merge(build())
	if e.Median.N() != 0 || !math.IsNaN(e.Median.Quantile()) {
		t.Fatalf("empty+empty: n=%d q=%v", e.Median.N(), e.Median.Quantile())
	}

	// empty + formed: exact copy.
	formed := build(1, 2, 3, 4, 5, 6, 7)
	e = build()
	e.merge(formed)
	if !reflect.DeepEqual(e, formed) {
		t.Fatal("empty+formed is not a copy")
	}

	// formed + empty: no-op.
	before := formed
	formed.merge(build())
	if !reflect.DeepEqual(formed, before) {
		t.Fatal("formed+empty changed the sketch")
	}

	// below-formation pair (total ≤ 5): exact, order-insensitive values.
	a := build(3, 1)
	a.merge(build(2))
	if got := a.Median.Quantile(); got != 2 {
		t.Fatalf("exact small merge median = %v, want 2", got)
	}
	if a.Median.N() != 3 {
		t.Fatalf("small merge n = %d", a.Median.N())
	}

	// constant streams: merge of two formed all-equal sketches must stay
	// finite and equal to the constant.
	c := build(5, 5, 5, 5, 5, 5)
	c.merge(build(5, 5, 5, 5, 5, 5, 5))
	if got := c.Median.Quantile(); got != 5 {
		t.Fatalf("constant merge median = %v, want 5", got)
	}
	if got := c.P95.Quantile(); math.IsNaN(got) || got != 5 {
		t.Fatalf("constant merge p95 = %v, want 5", got)
	}
}
