// Worker side of the shard fabric: the POST /v1/shards handler body.
// Every `mpvar serve` instance mounts it, so any server can moonlight as
// a shard worker for its peers — there is no separate worker binary.
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
	"sync"
	"sync/atomic"
	"time"

	"mpsram/internal/core"
)

// defaultCheckpointEvery paces the checkpoint frames the worker ships
// back — the resume granularity a coordinator gets when this worker dies
// mid-shard.
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
// bounded by the coordinator's patience and the request context). It
// keeps nothing on disk: each checkpoint and the finished artifact go
// from core.RunShardTo straight into a response frame, so a killed
// worker leaves no file behind and a coordinator resumes from the frames
// it landed.
type Worker struct {
	// CheckpointEvery paces the checkpoint frames shipped back to the
	// coordinator — the resume granularity a dispatch gets if this worker
	// dies. Set before serving traffic.
	CheckpointEvery time.Duration

	engineWorkers int
	sem           chan struct{}
	stats         WorkerStats

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // ServeShard calls past the closed check
}

// NewWorker builds a worker executing at most slots shards concurrently,
// each with engineWorkers Monte-Carlo workers (0 = all CPUs).
func NewWorker(slots, engineWorkers int) *Worker {
	if slots <= 0 {
		slots = 1
	}
	return &Worker{
		CheckpointEvery: defaultCheckpointEvery,
		engineWorkers:   engineWorkers,
		sem:             make(chan struct{}, slots),
	}
}

// Close refuses further dispatches and waits for the in-flight ones to
// return. Close is idempotent.
func (w *Worker) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.inflight.Wait()
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
// name instead of being dropped, and so is anything but white space
// after the JSON value.
func decodeShardRequest(body io.Reader) (ShardRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var sr ShardRequest
	if err := dec.Decode(&sr); err != nil {
		return ShardRequest{}, err
	}
	// Nothing but white space may follow the value: decoding another one
	// must meet the end of the body.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if tooBig := (*http.MaxBytesError)(nil); !errors.As(err, &tooBig) {
			err = errors.New("data after the JSON value")
		}
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
	spec, key, err := sr.Spec().Resolve()
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

	// A shipped checkpoint is refused like any other malformed dispatch.
	var resume *core.ShardArtifact
	if len(sr.Checkpoint) > 0 {
		if resume, err = core.DecodeShardArtifact(sr.Checkpoint); err == nil {
			err = resume.Verify(key, shard)
		}
		if err != nil {
			jsonError(rw, http.StatusBadRequest, "dispatch checkpoint: %v", err)
			return
		}
	}

	w.stats.ShardsServed.Add(1)
	w.stats.ShardsActive.Add(1)
	defer w.stats.ShardsActive.Add(-1)

	// The run stops when the server drains OR the coordinator hangs up;
	// either way the coordinator keeps the last checkpoint frame it landed.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(req.Context(), cancel)
	defer stop()

	rw.Header().Set("Content-Type", "application/x-mpvar-shardstream")
	rw.WriteHeader(http.StatusOK)
	fw := newFrameWriter(rw)
	// ship writes one blob frame; a failed write means the coordinator is
	// gone, so the run stops burning the shard.
	ship := func(kind string, data []byte) error {
		if err := fw.blob(kind, data); err != nil {
			cancel()
			return err
		}
		w.stats.BytesShipped.Add(int64(len(data)))
		return nil
	}
	if resume != nil && resume.Header.Complete {
		ship(frameArtifact, sr.Checkpoint) // already the artifact
		return
	}
	// Each artifact RunShardTo saves is encoded whole into one reused
	// buffer, since a frame announces its length, and shipped.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	save := func(complete bool, write func(*bufio.Writer) error) error {
		buf.Reset()
		if err := write(bw); err != nil {
			return err
		}
		if !complete {
			return ship(frameCheckpoint, buf.Bytes())
		}
		// A worker never ships bytes it would itself refuse.
		art, err := core.DecodeShardArtifact(buf.Bytes())
		if err == nil {
			err = art.Verify(key, shard)
		}
		if err != nil {
			return err
		}
		return ship(frameArtifact, buf.Bytes())
	}
	// On error RunShardTo has shipped the frontier it stopped at, where
	// the coordinator's re-dispatch resumes; the error frame ends the
	// stream.
	opt := core.ShardRunOptions{CheckpointEvery: w.CheckpointEvery,
		Progress: func(done, total int) { fw.progress(done, total) }}
	if err := core.RunShardTo(spec, shard, resume, opt, save,
		core.WithContext(runCtx), core.WithWorkers(w.engineWorkers)); err != nil {
		fw.sendError(err.Error())
	}
}
