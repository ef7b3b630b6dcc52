package mc

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mpsram/internal/litho"
	"mpsram/internal/stats"
)

// gauss1 is a cheap single-observable trial.
func gauss1(rng *rand.Rand, out []float64) bool {
	out[0] = rng.NormFloat64()
	return true
}

// gauss3 is a cheap 3-observable trial: three transforms of one draw.
func gauss3(rng *rand.Rand, out []float64) bool {
	v := rng.NormFloat64()
	out[0] = v
	out[1] = 2*v + 1
	out[2] = v * v
	return true
}

func TestRunVectorMoments(t *testing.T) {
	vr, err := RunVector(context.Background(), Config{Samples: 20000, Seed: 11}, 3, gauss3)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Accepted() != 20000 || vr.Rejected != 0 {
		t.Fatalf("accepted %d rejected %d", vr.Accepted(), vr.Rejected)
	}
	if m := vr.Stats[0].Mean(); math.Abs(m) > 0.05 {
		t.Fatalf("obs0 mean %g", m)
	}
	if m := vr.Stats[1].Mean(); math.Abs(m-1) > 0.1 {
		t.Fatalf("obs1 mean %g", m)
	}
	if s := vr.Stats[1].Std(); math.Abs(s-2) > 0.1 {
		t.Fatalf("obs1 std %g", s)
	}
	// E[v²] = 1 for the standard normal.
	if m := vr.Stats[2].Mean(); math.Abs(m-1) > 0.05 {
		t.Fatalf("obs2 mean %g", m)
	}
	if vr.Values != nil {
		t.Fatal("values buffered without Collect")
	}
	// Without collection, Summary comes from the streaming moments with
	// P²-approximate order statistics (obs1 = 1 + 2·gauss has median 1);
	// skew stays unrecoverable.
	s := vr.Summary(1)
	if s.N != 20000 || s.Mean != vr.Stats[1].Mean() || !math.IsNaN(s.Skew) {
		t.Fatalf("streaming summary %+v", s)
	}
	if math.IsNaN(s.Median) || math.Abs(s.Median-1) > 0.15 {
		t.Fatalf("streaming approximate median %g, want ≈1", s.Median)
	}
}

// TestRunVectorBitIdenticalAcrossWorkers is the determinism gate: the
// streaming statistics, the rejection count and the collected values must
// be exactly identical for Workers ∈ {1, 4, GOMAXPROCS}.
func TestRunVectorBitIdenticalAcrossWorkers(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		v := rng.NormFloat64()
		out[0] = v
		out[1] = math.Exp(v / 3)
		return v > -2 // reject the left tail so rejection bookkeeping is exercised
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var ref *VectorResult
	for _, w := range counts {
		vr, err := RunVector(context.Background(), Config{Samples: 3000, Seed: 42, Workers: w, Collect: true}, 2, f)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = vr
			continue
		}
		if vr.Rejected != ref.Rejected {
			t.Fatalf("workers=%d: rejected %d vs %d", w, vr.Rejected, ref.Rejected)
		}
		for j := range vr.Stats {
			if vr.Stats[j] != ref.Stats[j] {
				t.Fatalf("workers=%d obs %d: welford state differs: %+v vs %+v",
					w, j, vr.Stats[j], ref.Stats[j])
			}
			if len(vr.Values[j]) != len(ref.Values[j]) {
				t.Fatalf("workers=%d obs %d: value count differs", w, j)
			}
			for i := range vr.Values[j] {
				if vr.Values[j][i] != ref.Values[j][i] {
					t.Fatalf("workers=%d obs %d trial %d: %v vs %v",
						w, j, i, vr.Values[j][i], ref.Values[j][i])
				}
			}
		}
	}
	// Different seed → different stream.
	other, err := RunVector(context.Background(), Config{Samples: 3000, Seed: 43, Workers: 1, Collect: true}, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	if other.Stats[0] == ref.Stats[0] {
		t.Fatal("seed has no effect")
	}
}

func TestRunVectorAllRejected(t *testing.T) {
	_, err := RunVector(context.Background(), Config{Samples: 100, Seed: 1}, 1,
		func(rng *rand.Rand, out []float64) bool { return false })
	if err == nil || !strings.Contains(err.Error(), "every one of 100") {
		t.Fatalf("all-rejected run must error, got %v", err)
	}
}

func TestRunVectorBadConfig(t *testing.T) {
	bg := context.Background()
	if _, err := RunVector(bg, Config{Samples: 0}, 1, gauss1); err == nil {
		t.Fatal("zero samples must error")
	}
	if _, err := RunVector(bg, Config{Samples: 10}, 0, gauss1); err == nil {
		t.Fatal("zero observables must error")
	}
}

func TestRunVectorCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	cfg := Config{
		Samples: 200000,
		Seed:    5,
		Workers: 2,
		Progress: func(done, total int) {
			// Cancel once a few blocks are in; the run must stop well
			// short of the full budget.
			if calls.Add(1) == 3 {
				cancel()
			}
		},
	}
	_, err := RunVector(ctx, cfg, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	})
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled run must report cancellation, got %v", err)
	}
	// A pre-canceled context fails immediately.
	pre, precancel := context.WithCancel(context.Background())
	precancel()
	if _, err := RunVector(pre, Config{Samples: 100, Seed: 1}, 1, gauss1); err == nil {
		t.Fatal("pre-canceled context must error")
	}
}

// TestCancelStopsInsideBlock: a cancel that lands mid-block stops the
// block at its next trial, on the plain and the paired path alike, and
// the run reports none of the block's trials.
func TestCancelStopsInsideBlock(t *testing.T) {
	for _, paired := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		var trials atomic.Int64
		trial := func(rng *rand.Rand) float64 {
			if trials.Add(1) == 10 {
				cancel()
			}
			return rng.NormFloat64()
		}
		cfg := Config{Samples: blockSize, Seed: 1, Workers: 1}
		var err error
		if paired {
			_, err = RunVectorPaired(ctx, cfg, 1, func(rng *rand.Rand, y, x []float64) bool {
				y[0] = trial(rng)
				x[0] = y[0]
				return true
			})
		} else {
			_, err = RunVector(ctx, cfg, 1, func(rng *rand.Rand, out []float64) bool {
				out[0] = trial(rng)
				return true
			})
		}
		cancel()
		if err == nil || !strings.Contains(err.Error(), "canceled after 0 of 256 trials") {
			t.Fatalf("paired=%v: got %v, want the one-block run canceled after 0 trials", paired, err)
		}
		if n := trials.Load(); n != 10 {
			t.Fatalf("paired=%v: %d trials ran, want the block to stop right after the cancel in trial 10", paired, n)
		}
	}
}

func TestRunVectorProgressReachesTotal(t *testing.T) {
	var mu sync.Mutex
	var last, calls int
	cfg := Config{Samples: 1000, Seed: 3, Workers: 4, Progress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if total != 1000 {
			t.Errorf("total %d", total)
		}
		// The engine serializes callbacks with strictly increasing done.
		if done <= last {
			t.Errorf("done %d after %d: not strictly increasing", done, last)
		}
		last = done
	}}
	if _, err := RunVector(context.Background(), cfg, 1, gauss1); err != nil {
		t.Fatal(err)
	}
	if calls == 0 || last != 1000 {
		t.Fatalf("progress calls=%d last=%d", calls, last)
	}
}

// TestWelfordMatchesSummarize checks the streaming aggregation against the
// buffered exact statistics on the real tdp observable: same stream, the
// Welford mean/std must agree with stats.Summarize to ~1e-9 pp.
func TestWelfordMatchesSummarize(t *testing.T) {
	p, m := model(t)
	cfg := Config{Samples: 4000, Seed: 2015, Collect: true}
	vr := tdpAcrossSizes(t, p, litho.LE3, m, []int{16, 64, 256, 1024}, cfg)
	for j := range vr.Stats {
		// Summarize sorts in place; copy to keep Values in trial order.
		exact := stats.Summarize(append([]float64(nil), vr.Values[j]...))
		if exact.N != vr.Stats[j].N() {
			t.Fatalf("obs %d: N %d vs %d", j, exact.N, vr.Stats[j].N())
		}
		if d := math.Abs(exact.Mean - vr.Stats[j].Mean()); d > 1e-9 {
			t.Fatalf("obs %d: mean differs by %g", j, d)
		}
		if d := math.Abs(exact.Std - vr.Stats[j].Std()); d > 1e-9 {
			t.Fatalf("obs %d: std differs by %g", j, d)
		}
		if exact.Min != vr.Stats[j].Min() || exact.Max != vr.Stats[j].Max() {
			t.Fatalf("obs %d: min/max differ", j)
		}
	}
}

// TestSharedStreamMatchesPerCell: evaluating n=64 as one observable of the
// shared 4-size stream must give bit-identical per-trial values to the
// dedicated single-size stream (same draws, same formula).
func TestSharedStreamMatchesPerCell(t *testing.T) {
	p, m := model(t)
	cfg := Config{Samples: 2000, Seed: 7, Collect: true}
	single := tdpAcrossSizes(t, p, litho.LE3, m, []int{64}, cfg)
	shared := tdpAcrossSizes(t, p, litho.LE3, m, []int{16, 64, 256, 1024}, cfg)
	if !reflect.DeepEqual(shared.Values[1], single.Values[0]) {
		t.Fatal("shared-stream n=64 values differ from the single-size stream")
	}
	if shared.Stats[1] != single.Stats[0] || shared.Rejected != single.Rejected {
		t.Fatalf("shared-stream n=64 moments/rejects differ: %+v/%d vs %+v/%d",
			shared.Stats[1], shared.Rejected, single.Stats[0], single.Rejected)
	}
}

// TestSummaryPreservesTrialOrder: Summary must not sort Values in place —
// callers pair Values[a][k] with Values[b][k] per trial.
func TestSummaryPreservesTrialOrder(t *testing.T) {
	vr, err := RunVector(context.Background(), Config{Samples: 500, Seed: 8, Collect: true}, 2,
		func(rng *rand.Rand, out []float64) bool {
			v := rng.NormFloat64()
			out[0] = v
			out[1] = -v
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), vr.Values[0]...)
	if s := vr.Summary(0); s.N != 500 {
		t.Fatalf("summary %+v", s)
	}
	for i, v := range vr.Values[0] {
		if v != before[i] {
			t.Fatalf("Summary reordered Values: index %d", i)
		}
		if vr.Values[1][i] != -v {
			t.Fatalf("cross-observable pairing broken at trial %d", i)
		}
	}
}

func TestStreamingQuantilesApproximateExact(t *testing.T) {
	ctx := context.Background()
	f := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		out[1] = rng.ExpFloat64()
		return true
	}
	exact, err := RunVector(ctx, Config{Samples: 10000, Seed: 42, Collect: true}, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := RunVector(ctx, Config{Samples: 10000, Seed: 42}, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Quantiles == nil || len(approx.Quantiles) != 2 {
		t.Fatal("streaming run must carry quantile sketches")
	}
	if exact.Quantiles != nil {
		t.Fatal("collecting run must not carry sketches (exact path)")
	}
	for j := 0; j < 2; j++ {
		es := exact.Summary(j)
		as := approx.Summary(j)
		// The block-merged P² estimates track the exact order statistics
		// within a modest fraction of the spread (looser for the
		// heavy-tailed exponential observable).
		tol := 0.35 * es.Std
		for _, q := range []struct {
			name      string
			got, want float64
		}{
			{"median", as.Median, es.Median},
			{"p05", as.P05, es.P05},
			{"p95", as.P95, es.P95},
		} {
			if math.IsNaN(q.got) {
				t.Fatalf("obs %d %s: NaN approximate quantile", j, q.name)
			}
			if d := math.Abs(q.got - q.want); d > tol {
				t.Errorf("obs %d %s: approx %.4f vs exact %.4f (|Δ| %.4f > %.4f)",
					j, q.name, q.got, q.want, d, tol)
			}
		}
		// The Welford moments are untouched by the sketch path: both runs
		// aggregate them identically.
		if as.Mean != exact.Stats[j].Mean() || as.Std != exact.Stats[j].Std() {
			t.Errorf("obs %d: streaming moments diverge between runs", j)
		}
	}
}

func TestStreamingQuantilesBitIdenticalAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	base, err := RunVector(ctx, Config{Samples: 5000, Seed: 3, Workers: 1}, 1, gauss1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		r, err := RunVector(ctx, Config{Samples: 5000, Seed: 3, Workers: w}, 1, gauss1)
		if err != nil {
			t.Fatal(err)
		}
		bs, rs := base.Summary(0), r.Summary(0)
		if bs.Median != rs.Median || bs.P05 != rs.P05 || bs.P95 != rs.P95 {
			t.Fatalf("workers=%d: quantiles (%g,%g,%g) != (%g,%g,%g)",
				w, rs.P05, rs.Median, rs.P95, bs.P05, bs.Median, bs.P95)
		}
	}
}
