// The block scheduler — the layer under RunVector and RunVectorPaired
// that owns the worker pool, the block cursor, and the deterministic
// in-order delivery of per-block partial aggregates — and
// runStream above it, the one execution path every engine invocation
// takes: a direct run is the whole-stream capture of shard 0 of 1.
//
// Every trial stream is cut into fixed blockSize blocks. Before a
// stream's blocks run, runStream cuts every block's record at its fixed
// slot in the stream's record slice, with the record's accumulators and
// value window cut from one array per field. Workers pull block indices
// from an atomic cursor and evaluate them through the stream's one
// shared trial function, each into its own block's slot and value
// window, so no block depends on the worker that ran it. A finished
// block's record already sits in its slot: emission only advances the
// contiguous frontier over finished slots, strictly in block order.
// That ordering is the whole determinism story: the fold over emitted
// records is the exact left-fold a serial run would perform, so results
// are bit-identical for any worker count — and, because a contiguous
// prefix of emitted records is itself a valid left-fold state, the same
// mechanism gives sharding (emit a block sub-range) and checkpoint/resume
// (persist the frontier, restart after it) without new math.
//
// Partial-progress invariant: a block is either emitted whole or not at
// all. A cancellation mid-block abandons the in-flight block — its trials
// appear in no count, no record and no checkpoint — so a resumed run
// re-executes exactly the blocks at or after the frontier, never
// double-counting a torn block. Nothing is emitted once the run is
// canceled, so finished blocks past the frontier are dropped like torn
// ones. The trial count in the cancellation error reports emitted
// (frontier) trials only.
package mc

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mpsram/internal/stats"
)

// StreamRecord is one block's partial aggregate — the unit of
// distribution, checkpointing and the in-order reduce. Exactly one of
// Agg (plain stream) or CV (paired stream) is populated; Quant rides
// along unless the stream collects raw values, in which case Values
// holds the block's accepted observations trial-major (nobs values per
// accepted trial, in trial order).
type StreamRecord struct {
	Block    int
	Rejected int
	Agg      []stats.Welford
	Quant    []QuantileSketch
	CV       []stats.ControlVariate
	Values   []float64
}

// Stream kinds — which engine entry point produced the stream.
const (
	streamPlain  = 0
	streamPaired = 1
)

// streamHeader is the identity of one engine invocation inside a run:
// everything that must match between a shard capture and the reducer's
// re-execution for the recorded blocks to be the same computation.
// Comparable by ==.
type streamHeader struct {
	Kind    uint8
	Collect bool
	Nobs    int
	Samples int
	Seed    int64
}

// nblocks returns the stream's block count.
func (h streamHeader) nblocks() int { return Blocks(h.Samples) }

// Blocks returns the number of blocks an n-trial stream is cut into, the
// most shards that can divide its trials.
func Blocks(n int) int {
	return (n + blockSize - 1) / blockSize
}

// blockBounds returns the trial range [lo,hi) of block b in an n-trial
// stream.
func blockBounds(b, n int) (lo, hi int) {
	lo = b * blockSize
	hi = lo + blockSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// trialsIn returns the number of trials in blocks [first,last) of an
// n-trial stream.
func trialsIn(first, last, n int) int {
	lo := first * blockSize
	hi := last * blockSize
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return hi - lo
}

// accepted returns the number of trials the record's block accepted.
func (r *StreamRecord) accepted() int {
	if r.CV != nil {
		return r.CV[0].N()
	}
	return r.Agg[0].N()
}

// evalFunc evaluates the trials [lo,hi) of one block into its record,
// which runStream cut empty at the block's slot: zeroed accumulators and,
// for a collecting stream, an empty value window of the block's
// capacity. It returns ok=false when ctx was canceled mid-block; the torn
// block is then abandoned — never emitted, never counted.
type evalFunc func(ctx context.Context, rng *rand.Rand, rec *StreamRecord, lo, hi int) (ok bool)

// runStream is the one execution path under RunVector and
// RunVectorPaired, and the only reader of the Shard hook. It begins the
// stream on the capture — the caller's, or a fresh shard 0 of 1 for a
// direct run — and runs the stream's blocks of the capture's range past
// its frontier: all of them on a fresh capture, those a checkpoint had
// not recorded on a resumed one, and none on a replay.
//
// The run's two verdicts live here once for both stream kinds: a
// cancellation reports the emitted frontier (the partial-progress
// invariant above), and a whole stream, direct or replayed, goes back to
// the caller's fold unless its every trial was rejected. A shard capture
// hands back an empty stream: its view of the stream is the artifact,
// and the authoritative result comes from the reducer.
func runStream(ctx context.Context, cfg Config, kind uint8, nobs int, newEval func() evalFunc) (*stream, error) {
	n := cfg.Samples
	if n < 1 {
		return nil, fmt.Errorf("mc: sample count %d < 1", n)
	}
	if nobs < 1 {
		return nil, fmt.Errorf("mc: observable count %d < 1", nobs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sh := cfg.Shard
	if sh == nil {
		sh = &ShardRun{spec: ShardSpec{Index: 0, Count: 1}}
	}
	st, err := sh.beginStream(streamHeader{Kind: kind, Collect: cfg.Collect, Nobs: nobs, Samples: n, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	lo, hi := sh.spec.blockRange(Blocks(n))
	if first := lo + len(st.recs); first < hi {
		emitted := runBlocks(ctx, cfg, n, first, st.capture(first, hi), newEval, func() {
			st.recs = st.recs[:len(st.recs)+1]
			sh.advance()
		})
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mc: run canceled after %d of %d trials: %w", trialsIn(lo, first, n)+emitted, n, err)
		}
	}
	if cfg.Shard != nil && !sh.replay {
		return &stream{header: st.header}, nil
	}
	accepted := 0
	for i := range st.recs {
		accepted += st.recs[i].accepted()
	}
	if accepted == 0 {
		return nil, fmt.Errorf("mc: every one of %d trials was rejected", n)
	}
	return st, nil
}

// runBlocks drives the worker pool over the blocks first, first+1, … of
// an n-trial stream whose records slots holds, one per block in block
// order. newEval is invoked once per worker and the returned closure
// owns that worker's scratch; each worker also gets one reusable PRNG
// and nothing else, so any worker can evaluate any block, and it fills
// the block's slot in place. emit is called once per block as the
// contiguous frontier of finished slots passes it, strictly in block
// order, and is serialized by the scheduler — it needs no locking and
// may safely extend the stream's records or persist a checkpoint.
// cfg.Progress, when set, observes the frontier: done counts emitted
// trials of this range, total the range's trial count, strictly
// increasing.
//
// The return value is the number of emitted trials — the contiguous
// frontier, which on a clean run equals the range total and on a
// canceled run is exactly the prefix a resume may keep.
func runBlocks(ctx context.Context, cfg Config, n, first int, slots []StreamRecord, newEval func() evalFunc, emit func()) int {
	nblocks := len(slots)
	if nblocks <= 0 {
		return 0
	}
	last := first + nblocks
	rangeTrials := trialsIn(first, last, n)
	nw := cfg.workers()
	if nw > nblocks {
		nw = nblocks
	}
	var (
		next atomic.Int64 // block cursor
		wg   sync.WaitGroup

		// mu guards finished and the frontier; emit and Progress run
		// under it, which is what serializes them.
		mu       sync.Mutex
		finished = make([]bool, nblocks)
		frontier = first
		emitted  int
	)
	next.Store(int64(first))
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One PRNG and one scratch closure per worker, reseeded /
			// rewritten per trial instead of reallocated. The source is
			// math/rand's legacy stream with an O(1) Seed (legacy.go).
			rng := rand.New(new(legacySource))
			eval := newEval()
			for {
				if ctx.Err() != nil {
					return
				}
				b := int(next.Add(1)) - 1
				if b >= last {
					return
				}
				lo, hi := blockBounds(b, n)
				if !eval(ctx, rng, &slots[b-first], lo, hi) {
					return
				}
				mu.Lock()
				finished[b-first] = true
				// Emission stops at the cancellation, even with finished
				// blocks still waiting: a cancel from emit or Progress
				// lands at the block that triggered it.
				for ctx.Err() == nil && frontier < last && finished[frontier-first] {
					emitted += trialsIn(frontier, frontier+1, n)
					frontier++
					emit()
					if cfg.Progress != nil {
						cfg.Progress(emitted, rangeTrials)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return emitted
}

// foldPlain replays the serial left-fold over a plain stream's records
// in block order — the one merge tree every execution shape (any worker
// count, any shard partition, resumed or not) reduces through, which is
// why all of them are bit-identical.
func foldPlain(st *stream) *VectorResult {
	nobs := st.header.Nobs
	res := &VectorResult{Stats: make([]stats.Welford, nobs)}
	if !st.header.Collect {
		res.Quantiles = make([]QuantileSketch, nobs)
		for j := range res.Quantiles {
			res.Quantiles[j] = newQuantileSketch()
		}
	}
	for _, b := range st.recs {
		for j := range res.Stats {
			res.Stats[j].Merge(b.Agg[j])
		}
		for j := range b.Quant {
			res.Quantiles[j].merge(b.Quant[j])
		}
		res.Rejected += b.Rejected
	}
	if st.header.Collect {
		res.Values = st.collected(res.Stats[0].N())
	}
	return res
}

// collected returns a collecting stream's accepted values per observable
// in trial order; acc is the accepted trial count. One observable's
// values are compacted to the front of the array the records were cut
// from and handed back in it, capacity-capped, so the fold copies
// nothing. Every record's window starts at or after the values before it,
// so the compaction is always a left move, and decoded records, which
// are already packed, do not move at all. Several observables are
// transposed into one fresh array cut nobs ways.
func (st *stream) collected(acc int) [][]float64 {
	nobs := st.header.Nobs
	if nobs == 1 && st.values != nil {
		vals := st.values[:cap(st.values)]
		n := 0
		for _, b := range st.recs {
			if len(b.Values) > 0 && &b.Values[0] != &vals[n] {
				copy(vals[n:], b.Values)
			}
			n += len(b.Values)
		}
		return [][]float64{vals[:n:n]}
	}
	all := make([]float64, nobs*acc)
	out := make([][]float64, nobs)
	for j := range out {
		out[j] = all[j*acc : j*acc : (j+1)*acc]
	}
	for _, b := range st.recs {
		for t := 0; t*nobs < len(b.Values); t++ {
			for j := range out {
				out[j] = append(out[j], b.Values[t*nobs+j])
			}
		}
	}
	return out
}

// foldPaired is foldPlain for paired (control-variate) streams.
func foldPaired(st *stream) *CVVectorResult {
	nobs := st.header.Nobs
	res := &CVVectorResult{
		VectorResult: VectorResult{
			Stats:     make([]stats.Welford, nobs),
			Quantiles: make([]QuantileSketch, nobs),
		},
		CV: make([]stats.ControlVariate, nobs),
	}
	for j := range res.Quantiles {
		res.Quantiles[j] = newQuantileSketch()
	}
	for _, b := range st.recs {
		for j := range res.CV {
			res.CV[j].Merge(b.CV[j])
			res.Quantiles[j].merge(b.Quant[j])
		}
		res.Rejected += b.Rejected
	}
	for j := range res.Stats {
		res.Stats[j] = res.CV[j].Primary()
	}
	return res
}
