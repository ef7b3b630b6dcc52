package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/leakcheck"
	"mpsram/internal/mc"
)

// newWorkerServer mounts a worker on an httptest server with the healthz
// slice the pool's sweep reads. The returned cancel drains the worker.
func newWorkerServer(t *testing.T, w *Worker) (*httptest.Server, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var draining atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ShardsPath, func(rw http.ResponseWriter, req *http.Request) {
		w.ServeShard(ctx, rw, req)
	})
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, req *http.Request) {
		status := "ok"
		if draining.Load() {
			status = "draining"
		}
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"status":%q,"engine":%q}`, status, core.EngineVersion)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, func() { draining.Store(true); cancel() }
}

func newTestPool(t *testing.T, urls ...string) *Pool {
	t.Helper()
	p := NewPool(urls, PoolConfig{
		DispatchTimeout: 2 * time.Second,
		StallTimeout:    10 * time.Second,
		HealthEvery:     time.Hour, // tests sweep explicitly
	})
	p.Healthz(context.Background())
	return p
}

// localShard runs the shard in-process and returns the artifact bytes —
// the byte-identity reference for everything shipped over the fabric.
func localShard(t *testing.T, spec core.RunSpec, shard mc.ShardSpec) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "local.shard")
	if err := core.RunShard(spec, shard, path, core.ShardRunOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRemoteShardRoundTrip: a dispatch lands an artifact byte-identical
// to local execution, with progress observed and both ends' counters
// moving.
func TestRemoteShardRoundTrip(t *testing.T) {
	w := NewWorker(2, 1, t.TempDir())
	ts, _ := newWorkerServer(t, w)
	p := newTestPool(t, ts.URL)

	spec, err := (core.RunSpec{Workload: "fig5", Samples: 1000}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	shard := mc.ShardSpec{Index: 1, Count: 3}
	want := localShard(t, spec, shard)

	path := filepath.Join(t.TempDir(), "remote.shard")
	var lastDone, lastTotal atomic.Int64
	err = p.ExecuteShard(context.Background(), spec, shard, path, func(done, total int) {
		lastDone.Store(int64(done))
		lastTotal.Store(int64(total))
	})
	if err != nil {
		t.Fatalf("ExecuteShard: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("remotely executed artifact diverged from local execution")
	}
	if d, tot := lastDone.Load(), lastTotal.Load(); tot == 0 || d != tot {
		t.Fatalf("terminal progress %d/%d", d, tot)
	}
	if n := p.Stats().Dispatched.Load(); n != 1 {
		t.Fatalf("dispatched = %d", n)
	}
	if n := p.Stats().ShippedBytes.Load(); n < int64(len(want)) {
		t.Fatalf("shipped bytes = %d, artifact is %d", n, len(want))
	}
	if n := w.Stats().ShardsServed.Load(); n != 1 {
		t.Fatalf("worker served = %d", n)
	}

	// A complete artifact at the destination short-circuits: no dispatch.
	if err := p.ExecuteShard(context.Background(), spec, shard, path, nil); err != nil {
		t.Fatalf("short-circuit: %v", err)
	}
	if n := p.Stats().Dispatched.Load(); n != 1 {
		t.Fatalf("short-circuit still dispatched (count %d)", n)
	}
}

// TestWorkerRefusals pins the pre-stream HTTP refusals: engine drift and
// run-key drift answer 409, malformed dispatches 400, draining 503 —
// before any artifact bytes move.
func TestWorkerRefusals(t *testing.T) {
	w := NewWorker(1, 1, t.TempDir())
	ts, drain := newWorkerServer(t, w)

	spec, err := (core.RunSpec{Workload: "fig3"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	shard := mc.ShardSpec{Index: 0, Count: 2}

	postBody := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+ShardsPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	post := func(sr ShardRequest) (int, string) {
		t.Helper()
		body, _ := json.Marshal(sr)
		return postBody(body)
	}

	drifted := NewShardRequest(spec, shard, key, nil)
	drifted.Engine = "v0"
	if code, msg := post(drifted); code != http.StatusConflict || !strings.Contains(msg, "engine drift") {
		t.Fatalf("engine drift: %d %q", code, msg)
	}
	badKey := NewShardRequest(spec, shard, strings.Repeat("0", len(key)), nil)
	if code, msg := post(badKey); code != http.StatusConflict || !strings.Contains(msg, "run-key drift") {
		t.Fatalf("run-key drift: %d %q", code, msg)
	}
	// Keys shorter than the printed prefix come from the peer's bytes and
	// must still answer 409, not panic the handler.
	for _, short := range []string{"", "x"} {
		if code, msg := post(NewShardRequest(spec, shard, short, nil)); code != http.StatusConflict || !strings.Contains(msg, "run-key drift") {
			t.Fatalf("run key %q: %d %q", short, code, msg)
		}
	}
	unknown := NewShardRequest(core.RunSpec{Workload: "nope"}, shard, key, nil)
	if code, _ := post(unknown); code != http.StatusBadRequest {
		t.Fatalf("unknown workload: %d", code)
	}
	// A negative budget is refused, not run as the hint's budget under
	// the hint's key.
	negative := NewShardRequest(core.RunSpec{Workload: "fig3", Samples: -5}, shard, key, nil)
	if code, msg := post(negative); code != http.StatusBadRequest || !strings.Contains(msg, "samples must not be negative") {
		t.Fatalf("negative samples: %d %q", code, msg)
	}
	// Parameter values no run can mean are refused too.
	for _, c := range []struct {
		params exp.Params
		want   string
	}{
		{exp.Params{"n": -5}, "param n must be at least 1"},
		{exp.Params{"ol": -5.0}, "param ol must not be negative"},
	} {
		out := NewShardRequest(core.RunSpec{Workload: "fig5", Params: c.params}, shard, key, nil)
		if code, msg := post(out); code != http.StatusBadRequest || !strings.Contains(msg, c.want) {
			t.Fatalf("fig5 params %v: %d %q", c.params, code, msg)
		}
	}
	badShard := NewShardRequest(spec, mc.ShardSpec{Index: 5, Count: 2}, key, nil)
	if code, _ := post(badShard); code != http.StatusBadRequest {
		t.Fatalf("invalid shard: %d", code)
	}
	// A body past the request bound answers 413 before it is decoded;
	// the bound is lowered here from its 1.3 GiB.
	limit := maxShardRequestBytes
	maxShardRequestBytes = 1 << 10
	code, msg := post(NewShardRequest(spec, shard, key, make([]byte, 1<<10)))
	maxShardRequestBytes = limit
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds 1024 bytes") {
		t.Fatalf("oversized dispatch: %d %q", code, msg)
	}
	junkCkpt := NewShardRequest(spec, shard, key, []byte("not an artifact"))
	if code, msg := post(junkCkpt); code != http.StatusBadRequest || !strings.Contains(msg, "checkpoint") {
		t.Fatalf("junk checkpoint: %d %q", code, msg)
	}
	// The retired PCG stream's member, as an older coordinator spells it,
	// is refused by name instead of silently drawing the legacy stream.
	body, _ := json.Marshal(NewShardRequest(spec, shard, key, nil))
	for _, v := range []string{"true", "false"} {
		withField := append(bytes.TrimSuffix(body, []byte("}")), `,"fastseed":`+v+`}`...)
		if code, msg := postBody(withField); code != http.StatusBadRequest || !strings.Contains(msg, `unknown field "fastseed"`) {
			t.Fatalf(`"fastseed":%s dispatch: %d %q`, v, code, msg)
		}
	}

	drain()
	if code, msg := post(NewShardRequest(spec, shard, key, nil)); code != http.StatusServiceUnavailable ||
		!strings.Contains(msg, "draining") {
		t.Fatalf("draining worker: %d %q", code, msg)
	}
}

// TestRemoteCheckpointResume: a coordinator-side checkpoint travels with
// the dispatch, the worker resumes it, and the final artifact is
// byte-identical to an uninterrupted run.
func TestRemoteCheckpointResume(t *testing.T) {
	leakcheck.Check(t)
	spec, err := (core.RunSpec{Workload: "fig5", Samples: 2000}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	shard := mc.ShardSpec{Index: 0, Count: 1}
	want := localShard(t, spec, shard)

	// Produce a genuine interrupted checkpoint the way a drain would.
	path := filepath.Join(t.TempDir(), "resume.shard")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	err = core.RunShard(spec, shard, path, core.ShardRunOptions{
		Progress: func(done, total int) {
			if done >= total/4 && !fired.Swap(true) {
				cancel()
			}
		},
	}, core.WithContext(ctx))
	if err == nil {
		t.Fatal("interrupt did not fire")
	}
	art, err := core.ReadShardArtifact(path)
	if err != nil || art.Header.Complete {
		t.Fatalf("no resumable checkpoint: %v", err)
	}

	w := NewWorker(1, 1, t.TempDir())
	ts, _ := newWorkerServer(t, w)
	p := newTestPool(t, ts.URL)
	if err := p.ExecuteShard(context.Background(), spec, shard, path, nil); err != nil {
		t.Fatalf("resume dispatch: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed remote artifact diverged from the uninterrupted run")
	}
}

// TestRemoteNoLivePeers: an empty pool and a pool of unreachable peers
// both answer ErrNoLivePeers — the caller's local-fallback cue.
func TestRemoteNoLivePeers(t *testing.T) {
	spec, err := (core.RunSpec{Workload: "fig3"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	shard := mc.ShardSpec{Index: 0, Count: 1}
	path := filepath.Join(t.TempDir(), "x.shard")

	empty := NewPool(nil, PoolConfig{})
	if err := empty.ExecuteShard(context.Background(), spec, shard, path, nil); !errors.Is(err, ErrNoLivePeers) {
		t.Fatalf("empty pool: %v", err)
	}
	dead := newTestPool(t, "127.0.0.1:1")
	if err := dead.ExecuteShard(context.Background(), spec, shard, path, nil); !errors.Is(err, ErrNoLivePeers) {
		t.Fatalf("unreachable peer: %v", err)
	}
	if cfg, live := dead.Peers(); cfg != 1 || live != 0 {
		t.Fatalf("peers = %d configured %d live", cfg, live)
	}
}

// TestHealthzBodyBounded: the sweep reads at most maxHealthzBytes of a
// peer's healthz body, so a peer that answers "ok" past the bound is not
// live, while the same answer within it is.
func TestHealthzBodyBounded(t *testing.T) {
	serve := func(pad int) string {
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			fmt.Fprintf(rw, `{"status":"ok",%s"engine":%q}`, strings.Repeat(" ", pad), core.EngineVersion)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	p := newTestPool(t, serve(0), serve(maxHealthzBytes))
	if !p.check(context.Background(), p.peers[0]) {
		t.Fatal("peer with a short healthz body is not live")
	}
	if p.check(context.Background(), p.peers[1]) {
		t.Fatal("peer with a healthz body past the bound is live")
	}
}

// TestRemoteDeadPeerFailover is the fabric's central promise: a worker
// that dies mid-shard costs a re-dispatch, not a wrong result. The first
// dispatch is interrupted (worker drain mid-run) after shipping
// checkpoint frames; the landed checkpoint then rides the re-dispatch to
// a second worker, and the final artifact is byte-identical to an
// uninterrupted local run.
func TestRemoteDeadPeerFailover(t *testing.T) {
	leakcheck.Check(t)
	spec, err := (core.RunSpec{Workload: "fig5", Samples: 5000}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	shard := mc.ShardSpec{Index: 0, Count: 1}
	want := localShard(t, spec, shard)

	wA := NewWorker(1, 1, t.TempDir())
	wA.CheckpointEvery = time.Millisecond // ship checkpoints aggressively
	tsA, drainA := newWorkerServer(t, wA)
	wB := NewWorker(1, 1, t.TempDir())
	tsB, _ := newWorkerServer(t, wB)

	// Phase 1: only A is configured; kill it mid-run from the progress
	// stream.
	pA := newTestPool(t, tsA.URL)
	path := filepath.Join(t.TempDir(), "failover.shard")
	var fired atomic.Bool
	err = pA.ExecuteShard(context.Background(), spec, shard, path, func(done, total int) {
		if done >= total/4 && !fired.Swap(true) {
			drainA()
		}
	})
	if err == nil {
		t.Fatal("dispatch to a dying worker succeeded")
	}
	if !fired.Load() {
		t.Fatal("worker died before any progress was observed")
	}
	art, rerr := core.ReadShardArtifact(path)
	if rerr != nil {
		t.Fatalf("no checkpoint landed before the worker died: %v", rerr)
	}
	if art.Header.Complete {
		t.Fatal("interrupted dispatch landed a complete artifact")
	}
	if n := pA.Stats().FailedOver.Load(); n != 1 {
		t.Fatalf("failed over = %d", n)
	}

	// Phase 2: re-dispatch to B, resuming from the shipped checkpoint.
	pB := newTestPool(t, tsB.URL)
	if err := pB.ExecuteShard(context.Background(), spec, shard, path, nil); err != nil {
		t.Fatalf("re-dispatch: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failover artifact diverged from the uninterrupted run")
	}
}

// TestRemoteTornStreamMarksPeerDown: a peer whose stream ends without a
// terminal frame (process killed, connection dropped) is marked down so
// the next dispatch goes elsewhere.
func TestRemoteTornStreamMarksPeerDown(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ShardsPath, func(rw http.ResponseWriter, req *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintf(rw, "progress 1 10\n") // then vanish
	})
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, req *http.Request) {
		fmt.Fprintf(rw, `{"status":"ok","engine":%q}`, core.EngineVersion)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	p := newTestPool(t, ts.URL)
	spec, err := (core.RunSpec{Workload: "fig3"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	err = p.ExecuteShard(context.Background(), spec, mc.ShardSpec{Index: 0, Count: 1},
		filepath.Join(t.TempDir(), "x.shard"), nil)
	if err == nil || !strings.Contains(err.Error(), "terminal frame") {
		t.Fatalf("torn stream: %v", err)
	}
	if _, live := p.Peers(); live != 0 {
		t.Fatal("torn-stream peer still live")
	}
	if !errors.Is(p.ExecuteShard(context.Background(), spec, mc.ShardSpec{Index: 0, Count: 1},
		filepath.Join(t.TempDir(), "y.shard"), nil), ErrNoLivePeers) {
		t.Fatal("second dispatch did not fall back to no-live-peers")
	}
}

// TestRemoteLeastLoadedPick: dispatches spread toward the least-loaded
// live peer.
func TestRemoteLeastLoadedPick(t *testing.T) {
	p := newTestPool(t)
	a, b := &peer{url: "a"}, &peer{url: "b"}
	a.live.Store(true)
	b.live.Store(true)
	a.inflight.Store(3)
	p.peers = []*peer{a, b}
	if got := p.pickLive(); got != b {
		t.Fatalf("picked %s with inflight %d over idle b", got.url, got.inflight.Load())
	}
	b.live.Store(false)
	if got := p.pickLive(); got != a {
		t.Fatalf("picked %v, want the only live peer", got)
	}
}

// malformedFrames are streams readFrame must refuse.
var malformedFrames = []string{
	"artifact 10\nshort\n",  // truncated blob
	"checkpoint 3\nabcX",    // missing terminator
	"progress nope\n",       // malformed counts
	"mystery 1\n",           // unknown kind
	"artifact -1\n",         // negative length
	"error unquoted text\n", // unparseable message
	"progress 1 10",         // torn header (no newline)
	"artifact 1073741823\n", // announced far beyond what arrives
	"progress 1 2" + strings.Repeat(" ", maxFrameLine) + "\n",             // header line past the bound
	"error " + strconv.Quote(strings.Repeat("x", maxErrorBytes+1)) + "\n", // message past the bound
}

// TestFrameCodec pins the stream framing against torn and malformed
// input — the reader must error loudly, never yield a short blob.
func TestFrameCodec(t *testing.T) {
	read := func(s string) (*frame, error) {
		return readFrame(bufio.NewReader(strings.NewReader(s)))
	}
	if f, err := read("progress 3 10\n"); err != nil || f.done != 3 || f.total != 10 {
		t.Fatalf("progress: %+v %v", f, err)
	}
	if f, err := read("checkpoint 3\nabc\n"); err != nil || string(f.data) != "abc" {
		t.Fatalf("checkpoint: %+v %v", f, err)
	}
	if f, err := read(`error "boom went \"it\""` + "\n"); err != nil || f.msg != `boom went "it"` {
		t.Fatalf("error frame: %+v %v", f, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, bad := range malformedFrames {
		if _, err := read(bad); err == nil {
			t.Errorf("accepted malformed frame %q", bad)
		}
	}
	runtime.ReadMemStats(&after)
	// An announced length costs only the bytes that actually arrive.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading malformed frames allocated %d bytes", grew)
	}
	// Plain EOF at a frame boundary surfaces as io.EOF, not a parse error.
	if _, err := read(""); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
}

// Reading n bytes of frames allocates at most frameAllocPerByte·n +
// frameAllocSlack bytes: the bound FuzzShardArtifact holds the artifact
// decoder to. An announced blob length costs only the bytes that arrive.
const (
	frameAllocPerByte = 64
	frameAllocSlack   = 16 << 10
)

// FuzzReadFrame feeds arbitrary peer bytes to the frame reader: it must
// never panic, must allocate within its bound (frameAllocPerByte), and
// any frame it accepts must survive a frameWriter round trip unchanged.
func FuzzReadFrame(f *testing.F) {
	for _, s := range append([]string{
		"progress 3 10\n",
		"checkpoint 3\nabc\n",
		`error "boom went \"it\""` + "\n",
		"artifact 0\n\n",
	}, malformedFrames...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := readFrame(br)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(frameAllocPerByte*len(data)+frameAllocSlack); got > bound {
			t.Fatalf("reading %d bytes allocated %d, want at most %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		fw := &frameWriter{w: &buf}
		switch fr.kind {
		case frameProgress:
			err = fw.progress(fr.done, fr.total)
		case frameCheckpoint, frameArtifact:
			err = fw.blob(fr.kind, fr.data)
		case frameError:
			err = fw.sendError(fr.msg)
		default:
			t.Fatalf("readFrame accepted unknown kind %q", fr.kind)
		}
		if err != nil {
			t.Fatal(err)
		}
		back, err := readFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-encoded frame %q does not decode: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(fr, back) {
			t.Fatalf("frame round trip drifted: %+v -> %+v", fr, back)
		}
	})
}

// TestWorkerCloseRemovesOnlyOwnedDir: Close removes the temporary scratch
// directory NewWorker made, leaves a caller-supplied one alone, and
// refuses dispatches afterwards with 503.
func TestWorkerCloseRemovesOnlyOwnedDir(t *testing.T) {
	given := t.TempDir()
	if err := NewWorker(1, 1, given).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(given); err != nil {
		t.Fatalf("Close removed a caller-supplied dir: %v", err)
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	w := NewWorker(1, 1, "")
	if made, _ := filepath.Glob(filepath.Join(tmp, "mpvar-shardwork-*")); len(made) != 1 {
		t.Fatalf("NewWorker made %d scratch dirs, want 1", len(made))
	}
	ts, _ := newWorkerServer(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "mpvar-shardwork-*")); len(left) != 0 {
		t.Fatalf("Close left the owned scratch dir: %v", left)
	}
	resp, err := http.Post(ts.URL+ShardsPath, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dispatch to a closed worker: %d, want 503", resp.StatusCode)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
