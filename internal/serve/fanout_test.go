package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/leakcheck"
	"mpsram/internal/mc"
)

// The fan-out suite drives real registry workloads (fig5 — cheap,
// analytic, Cost-hinted) through the fan-out executor and pins the one
// property everything else hangs off: fan-out is pure execution detail,
// the response body is byte-identical to direct execution.

// directBody runs spec on a fan-out-disabled server and returns the body
// — the reference every fan-out path must reproduce byte-for-byte.
func directBody(t *testing.T, body string) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 1, Fanout: 1, EngineWorkers: 1})
	resp, b := postRun(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct run: %d %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Mpvar-Fanout"); got != "" {
		t.Fatalf("fan-out-disabled server set X-Mpvar-Fanout: %q", got)
	}
	return b
}

// TestFanoutByteIdenticalToDirect: a heavy submission fans out (header
// says so), the reduced body is byte-identical to direct execution, the
// result lands in the ordinary cache (a re-submission hits without the
// fan-out header), and the scratch artifacts are cleaned up.
func TestFanoutByteIdenticalToDirect(t *testing.T) {
	body := `{"workload":"fig5","samples":8000}`
	direct := directBody(t, body)

	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Workers: 1, Fanout: 3, FanoutMinSamples: 1, EngineWorkers: 1, FanoutDir: dir,
	})
	resp, fanned := postRun(t, ts, "", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mpvar-Cache") != "miss" {
		t.Fatalf("fan-out run: %d cache %q: %s", resp.StatusCode, resp.Header.Get("X-Mpvar-Cache"), fanned)
	}
	if got := resp.Header.Get("X-Mpvar-Fanout"); got != "3" {
		t.Fatalf("X-Mpvar-Fanout %q, want 3", got)
	}
	if !bytes.Equal(direct, fanned) {
		t.Fatalf("fan-out body diverged from direct execution:\ndirect: %s\nfanned: %s", direct, fanned)
	}
	if got := s.fanout.runs.Load(); got != 1 {
		t.Fatalf("fan-out runs counter %d, want 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 0 {
		t.Fatalf("scratch artifacts not cleaned up after success: %v (%v)", entries, err)
	}
	// The reduced body lives in the same content-addressed cache entry:
	// a re-submission is a plain hit, no fan-out involved.
	resp2, warm := postRun(t, ts, "", body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Mpvar-Cache") != "hit" ||
		resp2.Header.Get("X-Mpvar-Fanout") != "" || !bytes.Equal(warm, fanned) {
		t.Fatalf("cached re-submission drifted: %d cache %q fanout %q",
			resp2.StatusCode, resp2.Header.Get("X-Mpvar-Cache"), resp2.Header.Get("X-Mpvar-Fanout"))
	}
	if got := s.fanout.runs.Load(); got != 1 {
		t.Fatalf("cache hit went through the fan-out executor: runs %d", got)
	}
}

// TestFanoutDegeneratesToDirect pins the two ways a submission stays
// single-process: a fan-out width of 1, and a workload without a Cost
// hint (whose runtime is not in the shardable Monte-Carlo stream) even
// when the width and threshold would otherwise fan everything out.
func TestFanoutDegeneratesToDirect(t *testing.T) {
	s1, ts1 := newTestServer(t, Config{Workers: 1, Fanout: 1, FanoutMinSamples: 1, EngineWorkers: 1, FanoutDir: t.TempDir()})
	resp, b := postRun(t, ts1, "", `{"workload":"fig5","samples":2000}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mpvar-Fanout") != "" {
		t.Fatalf("-fanout 1: %d fanout header %q: %s", resp.StatusCode, resp.Header.Get("X-Mpvar-Fanout"), b)
	}
	if got := s1.fanout.runs.Load(); got != 0 {
		t.Fatalf("-fanout 1 executed %d fan-outs", got)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, Fanout: 3, FanoutMinSamples: 1, EngineWorkers: 1, FanoutDir: t.TempDir()})
	resp2, b2 := postRun(t, ts2, "", `{"workload":"testcheap","samples":1000000}`)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Mpvar-Fanout") != "" {
		t.Fatalf("cost-0 workload: %d fanout header %q: %s", resp2.StatusCode, resp2.Header.Get("X-Mpvar-Fanout"), b2)
	}
	if got := s2.fanout.runs.Load(); got != 0 {
		t.Fatalf("cost-0 workload executed %d fan-outs", got)
	}
	// Below the threshold, a Cost-hinted workload also stays direct.
	s3, ts3 := newTestServer(t, Config{Workers: 1, Fanout: 3, FanoutMinSamples: 50000, EngineWorkers: 1, FanoutDir: t.TempDir()})
	resp3, b3 := postRun(t, ts3, "", `{"workload":"fig5","samples":2000}`)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Mpvar-Fanout") != "" {
		t.Fatalf("below-threshold: %d fanout header %q: %s", resp3.StatusCode, resp3.Header.Get("X-Mpvar-Fanout"), b3)
	}
	if got := s3.fanout.runs.Load(); got != 0 {
		t.Fatalf("below-threshold submission executed %d fan-outs", got)
	}
}

// TestFanoutShardsDecision pins fanoutShards on normalized specs at the
// default threshold: the width once samples × Hints.Cost reaches it and
// the stream has at least two blocks, 0 otherwise.
func TestFanoutShardsDecision(t *testing.T) {
	for _, c := range []struct {
		name   string
		spec   core.RunSpec
		fanout int
		want   int
	}{
		{"fig5 below threshold", core.RunSpec{Workload: "fig5", Samples: 49999}, 3, 0},
		{"fig5 at threshold", core.RunSpec{Workload: "fig5", Samples: 50000}, 3, 3},
		{"one-block default mcspice", core.RunSpec{Workload: "mcspice"}, 3, 0},
		{"no Cost hint", core.RunSpec{Workload: "table1", Samples: 1000000}, 3, 0},
		{"fanout 1", core.RunSpec{Workload: "fig5", Samples: 1000000}, 1, 0},
	} {
		spec, err := c.spec.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := &Server{cfg: Config{Fanout: c.fanout}.withDefaults()}
		if got := s.fanoutShards(spec); got != c.want {
			t.Errorf("%s: fanoutShards = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestFanoutCappedAtStreamBlocks: the fan-out width is capped at the
// stream's block count, so a SPICE budget that fits in one block per
// stream runs direct even on a server whose width and threshold would
// fan it out. Fanning it out would leave one shard running every trial
// while the others and the reduce only repeated the nominal reads.
func TestFanoutCappedAtStreamBlocks(t *testing.T) {
	body := `{"workload":"mcspice","params":{"n":16},"samples":8}`
	direct := directBody(t, body)
	s, ts := newTestServer(t, Config{Workers: 1, Fanout: 2, FanoutMinSamples: 1, EngineWorkers: 1, FanoutDir: t.TempDir()})
	resp, b := postRun(t, ts, "", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mpvar-Fanout") != "" {
		t.Fatalf("one-block mcspice: %d fanout header %q: %s", resp.StatusCode, resp.Header.Get("X-Mpvar-Fanout"), b)
	}
	if got := s.fanout.runs.Load(); got != 0 {
		t.Fatalf("one-block mcspice executed %d fan-outs", got)
	}
	if !bytes.Equal(direct, b) {
		t.Fatalf("capped run diverged from the Fanout 1 server:\ndirect: %s\ncapped: %s", direct, b)
	}
	_, hb := getJSON(t, ts.URL+"/v1/healthz")
	var hz struct {
		Fanout struct {
			Runs int64 `json:"runs"`
		} `json:"fanout"`
	}
	if err := json.Unmarshal(hb, &hz); err != nil || hz.Fanout.Runs != 0 {
		t.Fatalf("healthz fan-out runs %d, want 0 (%v): %s", hz.Fanout.Runs, err, hb)
	}
}

// flakyExec fails shard 0's first attempt after the inner vehicle has
// already persisted a partial checkpoint, so the re-dispatch exercises
// the real resume path, not just the retry counter.
type flakyExec struct {
	inner   shardExec
	tripped atomic.Bool
}

func (e *flakyExec) runShard(ctx context.Context, spec core.RunSpec, shard mc.ShardSpec, path string, progress func(done, total int)) error {
	if shard.Index == 0 && e.tripped.CompareAndSwap(false, true) {
		// Let the shard make real progress, then kill the attempt so the
		// checkpoint it persisted on the way down has a non-empty frontier.
		cctx, cancel := context.WithCancel(ctx)
		go func() {
			// Cancel once the shard has reported progress (or give up).
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if _, err := os.Stat(path); err == nil {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			cancel()
		}()
		err := e.inner.runShard(cctx, spec, shard, path, progress)
		cancel()
		if err == nil {
			// The shard finished before the injected cancel landed; fail the
			// attempt anyway — the complete artifact makes the retry a
			// short-circuit resume, which is also worth exercising.
			return fmt.Errorf("injected shard failure")
		}
		return fmt.Errorf("injected shard failure: %w", err)
	}
	return e.inner.runShard(ctx, spec, shard, path, progress)
}

// holdExec keeps each shard in flight from its first emitted block until
// its context is canceled. The progress hook runs inside the engine's
// block emission, so blocking there stalls the shard however fast its
// trials run, and a drain always lands mid-run.
type holdExec struct{ inner shardExec }

func (e holdExec) runShard(ctx context.Context, spec core.RunSpec, shard mc.ShardSpec, path string, progress func(done, total int)) error {
	return e.inner.runShard(ctx, spec, shard, path, func(done, total int) {
		progress(done, total)
		if done > 0 {
			<-ctx.Done()
		}
	})
}

// TestFanoutShardFailureRedispatch: a shard attempt that dies is
// re-dispatched (resuming its checkpoint) and the run still completes
// with the byte-identical body.
func TestFanoutShardFailureRedispatch(t *testing.T) {
	body := `{"workload":"fig5","samples":8000}`
	direct := directBody(t, body)

	s, ts := newTestServer(t, Config{
		Workers: 1, Fanout: 2, FanoutMinSamples: 1, EngineWorkers: 1, FanoutDir: t.TempDir(),
	})
	s.shardRunner = &flakyExec{inner: s.shardRunner}
	resp, fanned := postRun(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with flaky shard: %d %s", resp.StatusCode, fanned)
	}
	if !bytes.Equal(direct, fanned) {
		t.Fatalf("re-dispatched run diverged from direct execution:\ndirect: %s\nfanned: %s", direct, fanned)
	}
	if got := s.fanout.shardsRedispatched.Load(); got < 1 {
		t.Fatalf("shardsRedispatched %d, want ≥ 1", got)
	}
}

// TestFanoutDrainCheckpointResume is the restart story end to end: a
// graceful drain cancels the fan-out run mid-flight, every shard leaves
// a resumable checkpoint in the scratch directory and the run fails with
// a resume hint; a new server pointed at the same directory resumes
// those checkpoints on re-submission — counted, not recomputed — and
// produces the byte-identical direct body.
func TestFanoutDrainCheckpointResume(t *testing.T) {
	leakcheck.Check(t)
	body := `{"workload":"fig5","samples":60000}`
	dir := t.TempDir()
	cfg := Config{Workers: 1, Fanout: 2, FanoutMinSamples: 1, EngineWorkers: 1, FanoutDir: dir}

	sA, tsA := newTestServer(t, cfg)
	sA.shardRunner = holdExec{inner: sA.shardRunner}
	resp, b := postRun(t, tsA, "?wait=0", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var env statusEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	// Wait for real shard progress so the checkpoints have a non-empty
	// frontier worth resuming.
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, sb := getJSON(t, tsA.URL+"/v1/runs/"+env.ID)
		var st statusEnvelope
		if json.Unmarshal(sb, &st) == nil && st.Progress != nil && st.Progress.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fan-out run never reported progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sA.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, env.ID+".shard*"))
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("drain left %d checkpoints (%v), want 2: %v", len(ckpts), ckpts, err)
	}
	sresp, sb := getJSON(t, tsA.URL+"/v1/runs/"+env.ID)
	var st statusEnvelope
	if sresp.StatusCode != http.StatusOK || json.Unmarshal(sb, &st) != nil ||
		st.Status != statusFailed || !strings.Contains(st.Error, "resubmit after restart to resume") {
		t.Fatalf("drained fan-out run status drifted: %d %s", sresp.StatusCode, sb)
	}

	// "Restart": a fresh server generation sharing the scratch directory.
	sB, tsB := newTestServer(t, cfg)
	resp2, resumed := postRun(t, tsB, "", body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Mpvar-Fanout") != "2" {
		t.Fatalf("resumed run: %d fanout %q: %s", resp2.StatusCode, resp2.Header.Get("X-Mpvar-Fanout"), resumed)
	}
	if got := sB.fanout.shardsResumed.Load(); got < 1 {
		t.Fatalf("shardsResumed %d, want ≥ 1 (recomputed instead of resuming?)", got)
	}
	if direct := directBody(t, body); !bytes.Equal(direct, resumed) {
		t.Fatalf("resumed body diverged from direct execution:\ndirect: %s\nresumed: %s", direct, resumed)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, env.ID+".shard*")); len(left) != 0 {
		t.Fatalf("checkpoints not cleaned up after the resumed run: %v", left)
	}
}

// TestFanoutHealthz: the healthz body carries the fan-out configuration
// and counters.
func TestFanoutHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Fanout: 3, FanoutMinSamples: 1, EngineWorkers: 1, FanoutDir: t.TempDir()})
	if resp, b := postRun(t, ts, "", `{"workload":"fig5","samples":4000}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, b)
	}
	resp, b := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}
	var got struct {
		Status        string  `json:"status"`
		QueueDepth    int     `json:"queue_depth"`
		CacheHits     int64   `json:"cache_hits"`
		CacheMisses   int64   `json:"cache_misses"`
		CacheHitRatio float64 `json:"cache_hit_ratio"`
		Fanout        struct {
			Shards         int    `json:"shards"`
			Exec           string `json:"exec"`
			MinSamples     int    `json:"min_samples"`
			InflightShards int64  `json:"inflight_shards"`
			Runs           int64  `json:"runs"`
		} `json:"fanout"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, b)
	}
	if got.Status != "ok" || got.Fanout.Shards != 3 || got.Fanout.Exec != "goroutine" ||
		got.Fanout.MinSamples != 1 || got.Fanout.Runs != 1 || got.Fanout.InflightShards != 0 {
		t.Fatalf("healthz fan-out block drifted: %+v", got)
	}
	if got.CacheMisses < 1 {
		t.Fatalf("cache counters missing: %+v", got)
	}
	if _, warm := postRun(t, ts, "", `{"workload":"fig5","samples":4000}`); warm == nil {
		t.Fatal("cache-hit re-submission failed")
	}
	_, b2 := getJSON(t, ts.URL+"/v1/healthz")
	if err := json.Unmarshal(b2, &got); err != nil || got.CacheHits < 1 || got.CacheHitRatio <= 0 {
		t.Fatalf("hit ratio not reported: %v %s", err, b2)
	}
	if got.Fanout.Runs != 1 {
		t.Fatalf("cache hit incremented fan-out runs: %d", got.Fanout.Runs)
	}
}
