// Worker side of the shard fabric: the POST /v1/shards handler body.
// Every `mpvar serve` instance mounts it, so any server can moonlight as
// a shard worker for its peers — there is no separate worker binary.
package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/mc"
)

// defaultCheckpointEvery paces the worker's artifact persistence and the
// checkpoint frames it ships back — the resume granularity a coordinator
// gets when this worker dies mid-shard.
const defaultCheckpointEvery = 500 * time.Millisecond

// WorkerStats are the /v1/healthz counters for the worker role.
type WorkerStats struct {
	ShardsServed atomic.Int64 // dispatches that reached execution
	ShardsActive atomic.Int64 // executing right now (gauge)
	BytesShipped atomic.Int64 // artifact + checkpoint bytes streamed out
}

// Worker executes dispatched shards in a bounded pool and streams the
// results back. It is safe for concurrent requests; the slot count
// bounds how many shards execute at once (excess dispatches wait,
// bounded by the coordinator's patience and the request context).
type Worker struct {
	// CheckpointEvery paces artifact persistence and the checkpoint
	// frames shipped back to the coordinator — the resume granularity a
	// dispatch gets if this worker dies. Set before serving traffic.
	CheckpointEvery time.Duration

	dir           string
	ownsDir       bool // dir was made by NewWorker; Close removes it
	engineWorkers int
	sem           chan struct{}
	stats         WorkerStats

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // ServeShard calls past the closed check
}

// NewWorker builds a worker executing at most slots shards concurrently,
// each with engineWorkers Monte-Carlo workers (0 = all CPUs), keeping
// scratch artifacts under dir. An empty dir gets a unique temp
// directory, so coordinator and worker instances sharing one machine
// (or one test process) never collide on scratch files; the worker owns
// that directory and Close removes it. A caller-supplied dir is never
// removed.
func NewWorker(slots, engineWorkers int, dir string) *Worker {
	if slots <= 0 {
		slots = 1
	}
	owns := false
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "mpvar-shardwork-"); err != nil {
			// The per-process fallback may be shared by every worker of
			// this process, so no single one owns it.
			dir = filepath.Join(os.TempDir(), fmt.Sprintf("mpvar-shardwork-%d", os.Getpid()))
		} else {
			owns = true
		}
	}
	return &Worker{
		CheckpointEvery: defaultCheckpointEvery,
		dir:             dir,
		ownsDir:         owns,
		engineWorkers:   engineWorkers,
		sem:             make(chan struct{}, slots),
	}
}

// Close refuses further dispatches, waits for the in-flight ones to
// return and removes the scratch directory if the worker made it. Its
// artifacts are of no use to anyone once the worker is gone: a
// coordinator resumes from the checkpoints shipped to it, never from this
// directory. Close is idempotent.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.inflight.Wait()
	if w.ownsDir {
		return os.RemoveAll(w.dir)
	}
	return nil
}

// enter registers a dispatch unless the worker is closed; a true return
// must be paired with w.inflight.Done.
func (w *Worker) enter() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.inflight.Add(1)
	return true
}

// Stats exposes the worker counters for the healthz body.
func (w *Worker) Stats() *WorkerStats { return &w.stats }

// jsonError mirrors the serve layer's error envelope so /v1/shards
// refusals read like every other endpoint's.
func jsonError(rw http.ResponseWriter, code int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	fmt.Fprintf(rw, "{\"error\":%s}\n", mustQuote(fmt.Sprintf(format, args...)))
}

func mustQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// maxShardRequestBytes bounds a POST /v1/shards body: a checkpoint of
// up to maxBlobBytes (the most a coordinator accepts in one frame) in
// base64, plus the JSON envelope around it. A variable only so a test
// can reach the bound without sending a gigabyte.
var maxShardRequestBytes int64 = maxBlobBytes/3*4 + 4 + 64<<10

// decodeShardRequest reads a POST /v1/shards body into the dispatch it
// names, before any validation. Unknown fields are refused, so a member
// this build does not know (the retired fastseed, say) answers 400 by
// name instead of being dropped.
func decodeShardRequest(body io.Reader) (ShardRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var sr ShardRequest
	if err := dec.Decode(&sr); err != nil {
		return ShardRequest{}, err
	}
	return sr, nil
}

// ServeShard handles one POST /v1/shards dispatch. ctx is the server's
// drain-aware lifetime: when it cancels, running shards checkpoint and
// the stream ends with an error frame (the coordinator re-dispatches
// elsewhere from the shipped checkpoint). Refusals before the stream
// starts use plain HTTP status codes — 400 for malformed dispatches, 413
// for a body over maxShardRequestBytes, 409 for engine/run-key drift,
// 503 when ctx is already done or the worker is closed — so a
// coordinator can tell a refusing peer from a failing shard.
func (w *Worker) ServeShard(ctx context.Context, rw http.ResponseWriter, req *http.Request) {
	if !w.enter() {
		jsonError(rw, http.StatusServiceUnavailable, "worker is closed")
		return
	}
	defer w.inflight.Done()
	sr, err := decodeShardRequest(http.MaxBytesReader(rw, req.Body, maxShardRequestBytes))
	if err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			jsonError(rw, http.StatusRequestEntityTooLarge, "shard request exceeds %d bytes", tooBig.Limit)
			return
		}
		jsonError(rw, http.StatusBadRequest, "invalid shard request: %v", err)
		return
	}
	if sr.Engine != core.EngineVersion {
		jsonError(rw, http.StatusConflict,
			"engine drift: dispatch is %s, this worker is %s", sr.Engine, core.EngineVersion)
		return
	}
	shard := sr.Shard()
	if err := shard.Validate(); err != nil {
		jsonError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := sr.Spec().Normalize()
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := spec.Key()
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	if key != sr.RunKey {
		// Same engine string but the key moved: parameter-schema or
		// hashing drift between builds. Refusing here is what keeps a
		// drifted peer from contributing wrong blocks to a reduce.
		jsonError(rw, http.StatusConflict,
			"run-key drift: dispatch says %.12s, this worker computes %.12s — upgrade one side", sr.RunKey, key)
		return
	}
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		jsonError(rw, http.StatusServiceUnavailable, "worker is draining")
		return
	case <-req.Context().Done():
		return
	}
	if ctx.Err() != nil {
		jsonError(rw, http.StatusServiceUnavailable, "worker is draining")
		return
	}

	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		jsonError(rw, http.StatusInternalServerError, "worker scratch dir: %v", err)
		return
	}
	path := filepath.Join(w.dir, core.ShardArtifactName(key, shard.Index, shard.Count))
	if err := w.landCheckpoint(path, sr, key, shard); err != nil {
		jsonError(rw, http.StatusBadRequest, "%v", err)
		return
	}

	w.stats.ShardsServed.Add(1)
	w.stats.ShardsActive.Add(1)
	defer w.stats.ShardsActive.Add(-1)

	// The run stops when the server drains OR the coordinator hangs up —
	// either way the checkpoint persists locally and (usually) on the
	// coordinator via the last shipped checkpoint frame.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(req.Context(), cancel)
	defer stop()

	rw.Header().Set("Content-Type", "application/x-mpvar-shardstream")
	rw.WriteHeader(http.StatusOK)
	fw := newFrameWriter(rw)

	// Ship checkpoints on the same cadence RunShard persists them; the
	// file is written atomically, so a read always sees a whole artifact.
	shipDone := make(chan struct{})
	var ship sync.WaitGroup
	ship.Add(1)
	go func() {
		defer ship.Done()
		t := time.NewTicker(w.CheckpointEvery)
		defer t.Stop()
		var lastLen int64
		for {
			select {
			case <-shipDone:
				return
			case <-t.C:
				data, err := os.ReadFile(path)
				if err != nil || int64(len(data)) == lastLen {
					continue
				}
				lastLen = int64(len(data))
				if fw.blob(frameCheckpoint, data) != nil {
					cancel() // coordinator is gone; stop burning the shard
					return
				}
				w.stats.BytesShipped.Add(int64(len(data)))
			}
		}
	}()

	runErr := core.RunShard(spec, shard, path,
		core.ShardRunOptions{
			Resume:          true,
			CheckpointEvery: w.CheckpointEvery,
			Progress:        func(done, total int) { fw.progress(done, total) },
		},
		core.WithContext(runCtx), core.WithWorkers(w.engineWorkers))
	close(shipDone)
	ship.Wait()

	if runErr != nil {
		// RunShard persisted the frontier before returning; ship that
		// final checkpoint so the coordinator's re-dispatch starts where
		// this attempt stopped, then the terminal error frame.
		if data, err := os.ReadFile(path); err == nil {
			if fw.blob(frameCheckpoint, data) == nil {
				w.stats.BytesShipped.Add(int64(len(data)))
			}
		}
		fw.sendError(runErr.Error())
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fw.sendError(fmt.Sprintf("reading finished artifact: %v", err))
		return
	}
	// Validate what we are about to ship exactly the way the coordinator
	// will on receipt — a worker never ships bytes it would itself refuse.
	art, err := core.DecodeShardArtifact(data)
	if err == nil {
		err = art.Verify(key, shard)
	}
	if err == nil && !art.Header.Complete {
		err = fmt.Errorf("finished shard left an incomplete artifact")
	}
	if err != nil {
		fw.sendError(err.Error())
		return
	}
	if fw.blob(frameArtifact, data) == nil {
		w.stats.BytesShipped.Add(int64(len(data)))
		os.Remove(path)
	}
}

// landCheckpoint installs the dispatch's checkpoint (if any) at path for
// RunShard to resume from — unless a local checkpoint for the same run
// is already further along (this worker ran the shard before and kept
// its own scratch), in which case the local one wins.
func (w *Worker) landCheckpoint(path string, sr ShardRequest, key string, shard mc.ShardSpec) error {
	if len(sr.Checkpoint) == 0 {
		return nil
	}
	shipped, err := core.DecodeShardArtifact(sr.Checkpoint)
	if err != nil {
		return fmt.Errorf("dispatch checkpoint: %w", err)
	}
	if err := shipped.Verify(key, shard); err != nil {
		return fmt.Errorf("dispatch checkpoint: %w", err)
	}
	if local, err := core.ReadShardArtifact(path); err == nil {
		if lerr := local.Verify(key, shard); lerr == nil {
			ld, _ := local.Payload.Frontier(shard)
			sd, _ := shipped.Payload.Frontier(shard)
			if local.Header.Complete || ld >= sd {
				return nil
			}
		}
	}
	return core.WriteShardArtifactFile(path, sr.Checkpoint)
}
