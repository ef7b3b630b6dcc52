package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/leakcheck"
	"mpsram/internal/remote"
)

// The remote fan-out suite runs real coordinator + worker Server
// instances over httptest and pins the tentpole invariant end to end:
// dispatching shards to peers is pure execution detail — the response
// body and cache entry are byte-identical to direct execution — and the
// failure ladder (drifted peer → never picked, dead peer → failover
// from the last shipped checkpoint, no peers at all → local fallback,
// coordinator drain → resumable artifacts) never costs a wrong answer.

// newWorkerPeer starts a plain Server to act as a shard worker for a
// coordinator under test, with checkpoint shipping tightened so tests
// observe shipped checkpoints quickly.
func newWorkerPeer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newTestServer(t, Config{Workers: 2, EngineWorkers: 1})
	s.remoteWorker.CheckpointEvery = 25 * time.Millisecond
	return s, ts
}

// newHeldWorkerPeer is newWorkerPeer with its shard streams held in
// flight until the coordinator's end of the stream goes away (a drain, a
// killed connection) or the test calls release; after release, streams
// pass through, so a resumed run's dispatch runs normally. Progress
// frames are written from the engine's block emission, so stalling their
// write stalls the shard however fast its trials run: a kill or a drain
// always lands mid-shard.
func newHeldWorkerPeer(t *testing.T) (ts *httptest.Server, release func()) {
	t.Helper()
	s := New(Config{Workers: 2, EngineWorkers: 1})
	s.remoteWorker.CheckpointEvery = 25 * time.Millisecond
	h := s.Handler()
	released := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(released) }) }
	ts = startTestServer(t, s, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == remote.ShardsPath {
			w = &heldStream{ResponseWriter: w, ctx: r.Context(), released: released}
		}
		h.ServeHTTP(w, r)
	}))
	// Cleanups run last-in first-out: release before the server closes.
	t.Cleanup(release)
	return ts, release
}

// heldStream is a held shard response stream. Until a checkpoint frame
// has gone out, it delays each progress or artifact frame by a
// millisecond: a 30 000-draw fig5 shard has over 350 blocks, so it cannot
// finish before its first checkpoint ships, two 25 ms ticks in. After
// that, it blocks the next such frame until ctx is done or released is
// closed. It relies on the worker writing each frame header in one Write
// (see the frame format in package remote).
type heldStream struct {
	http.ResponseWriter
	ctx      context.Context
	released <-chan struct{}
	shipped  bool
}

func (w *heldStream) Write(p []byte) (int, error) {
	held := bytes.HasPrefix(p, []byte("progress ")) || bytes.HasPrefix(p, []byte("artifact "))
	select {
	case <-w.released:
		held = false
	default:
	}
	switch {
	case held && !w.shipped:
		time.Sleep(time.Millisecond)
	case held:
		select {
		case <-w.ctx.Done():
			return 0, w.ctx.Err()
		case <-w.released:
		}
	}
	w.shipped = w.shipped || bytes.HasPrefix(p, []byte("checkpoint "))
	return w.ResponseWriter.Write(p)
}

// Unwrap lets the worker's http.ResponseController flush the stream.
func (w *heldStream) Unwrap() http.ResponseWriter { return w.ResponseWriter }

type remoteHealth struct {
	Status string `json:"status"`
	Remote struct {
		PeersConfigured    int   `json:"peers_configured"`
		PeersLive          int   `json:"peers_live"`
		ShardsDispatched   int64 `json:"shards_dispatched"`
		ShippedBytes       int64 `json:"shipped_bytes"`
		FailedOver         int64 `json:"failed_over"`
		WorkerShardsServed int64 `json:"worker_shards_served"`
	} `json:"remote"`
}

func remoteHealthz(t *testing.T, ts *httptest.Server) remoteHealth {
	t.Helper()
	resp, b := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}
	var h remoteHealth
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return h
}

// TestRemoteFanoutByteIdenticalToDirect: a heavy submission fans out
// across two peer workers, the reduced body is byte-identical to direct
// execution and lands in the same cache entry, and both ends' healthz
// remote blocks account for the dispatches.
func TestRemoteFanoutByteIdenticalToDirect(t *testing.T) {
	body := `{"workload":"fig5","samples":8000}`
	direct := directBody(t, body)

	wA, tsA := newWorkerPeer(t)
	wB, tsB := newWorkerPeer(t)
	_, ts := newTestServer(t, Config{
		Workers: 1, Fanout: 3, FanoutMinSamples: 1, EngineWorkers: 1,
		FanoutDir: t.TempDir(), FanoutExec: "remote",
		Peers: []string{tsA.URL, tsB.URL},
	})

	resp, fanned := postRun(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remote fan-out run: %d %s", resp.StatusCode, fanned)
	}
	if got := resp.Header.Get("X-Mpvar-Fanout"); got != "3" {
		t.Fatalf("X-Mpvar-Fanout %q, want 3", got)
	}
	if !bytes.Equal(direct, fanned) {
		t.Fatalf("remote fan-out body diverged from direct execution:\ndirect: %s\nremote: %s", direct, fanned)
	}

	h := remoteHealthz(t, ts)
	if h.Remote.PeersConfigured != 2 || h.Remote.PeersLive != 2 {
		t.Fatalf("coordinator peers %d configured / %d live, want 2/2", h.Remote.PeersConfigured, h.Remote.PeersLive)
	}
	if h.Remote.ShardsDispatched != 3 || h.Remote.ShippedBytes == 0 {
		t.Fatalf("coordinator dispatched %d shards (%d bytes), want 3 dispatches",
			h.Remote.ShardsDispatched, h.Remote.ShippedBytes)
	}
	served := wA.remoteWorker.Stats().ShardsServed.Load() + wB.remoteWorker.Stats().ShardsServed.Load()
	if served != 3 {
		t.Fatalf("workers served %d shards, want 3", served)
	}

	// Same cache entry as direct execution: a re-submission is a plain
	// hit with no execution at all.
	resp2, warm := postRun(t, ts, "", body)
	if resp2.Header.Get("X-Mpvar-Cache") != "hit" || !bytes.Equal(warm, fanned) {
		t.Fatalf("cached re-submission drifted: cache %q", resp2.Header.Get("X-Mpvar-Cache"))
	}
}

// TestRemoteFanoutDriftedPeerLocalFallback: a peer advertising a
// different engine version is never dispatched to — its healthz keeps
// it out of the live set — and with no live peer at all the run falls
// back to in-process execution, still byte-identical.
func TestRemoteFanoutDriftedPeerLocalFallback(t *testing.T) {
	body := `{"workload":"fig5","samples":8000}`
	direct := directBody(t, body)

	var shardHits atomic.Int64
	drifted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/shards") {
			shardHits.Add(1)
			http.Error(w, "should never be dispatched to", http.StatusConflict)
			return
		}
		fmt.Fprint(w, `{"status":"ok","engine":"v0-ancient"}`)
	}))
	t.Cleanup(drifted.Close)

	_, ts := newTestServer(t, Config{
		Workers: 1, Fanout: 2, FanoutMinSamples: 1, EngineWorkers: 1,
		FanoutDir: t.TempDir(), FanoutExec: "remote",
		Peers: []string{drifted.URL},
	})
	resp, fanned := postRun(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback run: %d %s", resp.StatusCode, fanned)
	}
	if !bytes.Equal(direct, fanned) {
		t.Fatal("local-fallback body diverged from direct execution")
	}
	if n := shardHits.Load(); n != 0 {
		t.Fatalf("drifted peer received %d dispatches, want 0", n)
	}
	h := remoteHealthz(t, ts)
	if h.Remote.PeersLive != 0 || h.Remote.ShardsDispatched != 0 {
		t.Fatalf("drifted peer counted live (%d) or dispatched to (%d)",
			h.Remote.PeersLive, h.Remote.ShardsDispatched)
	}
}

// TestRemoteFanoutDeadPeerFailover: killing a worker's connections
// mid-run tears its shard streams; the coordinator marks it down,
// re-dispatches from the last shipped checkpoint, and the run still
// completes byte-identical to direct execution.
func TestRemoteFanoutDeadPeerFailover(t *testing.T) {
	leakcheck.Check(t)
	body := `{"workload":"fig5","samples":60000}`
	direct := directBody(t, body)

	// Worker A holds its shards in flight until its connections die, so
	// the kill always tears a running shard.
	tsA, releaseA := newHeldWorkerPeer(t)
	_, tsB := newWorkerPeer(t)
	s, ts := newTestServer(t, Config{
		Workers: 1, Fanout: 2, FanoutMinSamples: 1, EngineWorkers: 1,
		FanoutDir: t.TempDir(), FanoutExec: "remote",
		Peers: []string{tsA.URL, tsB.URL},
	})
	// Submit only once the health sweep has marked both peers live: a
	// dispatch racing the first sweep goes to whichever peer answered
	// first, and with both shards on B nothing would run on A to kill.
	for deadline := time.Now().Add(15 * time.Second); remoteHealthz(t, ts).Remote.PeersLive != 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("peers never both live")
		}
	}

	resp, b := postRun(t, ts, "?wait=0", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var env statusEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}

	// Wait for shard streams to be live (progress flowing), then tear
	// every connection into worker A.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no progress observed before deadline")
		}
		_, sb := getJSON(t, ts.URL+"/v1/runs/"+env.ID)
		var st statusEnvelope
		if json.Unmarshal(sb, &st) == nil && st.Progress != nil && st.Progress.Done > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	tsA.CloseClientConnections()
	releaseA() // a re-dispatch that lands on A again runs through

	// The blocking re-submission coalesces into the in-flight run and
	// waits for it — completion despite the torn streams is the assertion.
	resp2, fanned := postRun(t, ts, "", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-failover fetch: %d %s", resp2.StatusCode, fanned)
	}
	if !bytes.Equal(direct, fanned) {
		t.Fatal("failover body diverged from direct execution")
	}
	if n := s.remotePool.Stats().FailedOver.Load(); n < 1 {
		t.Fatalf("failed_over = %d, want >= 1", n)
	}
	if n := s.fanout.shardsRedispatched.Load(); n < 1 {
		t.Fatalf("shards_redispatched = %d, want >= 1", n)
	}
}

// TestRemoteFanoutDrainResume: draining the coordinator mid-run leaves
// the workers' shipped checkpoints as resumable artifacts in its
// FanoutDir; a restarted coordinator resumes them on resubmission and
// produces the byte-identical body.
func TestRemoteFanoutDrainResume(t *testing.T) {
	leakcheck.Check(t)
	body := `{"workload":"fig5","samples":60000}`
	direct := directBody(t, body)

	// Both workers hold their shards in flight until the coordinator
	// hangs up, so the drain always interrupts a running run.
	tsA, releaseA := newHeldWorkerPeer(t)
	tsB, releaseB := newHeldWorkerPeer(t)
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, Fanout: 2, FanoutMinSamples: 1, EngineWorkers: 1,
		FanoutDir: dir, FanoutExec: "remote",
		Peers: []string{tsA.URL, tsB.URL},
	}
	sA, ts := newTestServer(t, cfg)

	resp, b := postRun(t, ts, "?wait=0", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var env statusEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}

	// Wait for at least one shipped checkpoint to land in the
	// coordinator's scratch dir — proof the drain will leave something
	// resumable behind.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no shipped checkpoint landed before deadline")
		}
		if m, _ := filepath.Glob(filepath.Join(dir, env.ID+".shard*")); len(m) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sA.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	releaseA()
	releaseB()
	checkpoints, _ := filepath.Glob(filepath.Join(dir, env.ID+".shard*"))
	if len(checkpoints) == 0 {
		t.Fatal("drain left no resumable shard artifacts")
	}
	for _, p := range checkpoints {
		art, err := core.ReadShardArtifact(p)
		if err != nil {
			t.Fatalf("drain checkpoint %s unreadable: %v", p, err)
		}
		if art.Header.RunKey != env.ID {
			t.Fatalf("drain checkpoint %s belongs to run %s", p, art.Header.RunKey)
		}
	}

	sB, ts2 := newTestServer(t, cfg)
	resp2, fanned := postRun(t, ts2, "", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resumed run: %d %s", resp2.StatusCode, fanned)
	}
	if !bytes.Equal(direct, fanned) {
		t.Fatal("resumed body diverged from direct execution")
	}
	if n := sB.fanout.shardsResumed.Load(); n < 1 {
		t.Fatalf("shards_resumed = %d, want >= 1", n)
	}
}
