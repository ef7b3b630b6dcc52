package serve

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"sync"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/report"
)

// Run lifecycle. A run is identified by its content address (the
// core.RunSpec key): identical submissions — concurrent or repeated —
// resolve to the same run record while it is in flight (single-flight)
// and to the same cached body afterwards. Failed runs keep their record
// (bounded, see maxFailedRetained) so status queries answer "failed"
// with the error instead of 404, but their bodies are never cached: a
// re-submission executes again (errors are usually transient — a
// timeout, a canceled context — while results are forever).

// runStatus is the lifecycle state exposed by the status endpoints.
type runStatus string

const (
	statusQueued  runStatus = "queued"
	statusRunning runStatus = "running"
	statusDone    runStatus = "done"
	statusFailed  runStatus = "failed"
)

// maxFailedRetained bounds the failed-run records kept for status
// queries; beyond it the oldest failures are forgotten (and 404 again).
const maxFailedRetained = 64

// progressPoint is one (done, total) progress observation.
type progressPoint struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// run is one in-flight execution.
type run struct {
	key  string
	spec core.RunSpec // normalized

	mu       sync.Mutex
	status   runStatus
	progress progressPoint
	fanout   int // shards this run fanned out into (0 = direct)
	subs     map[chan progressPoint]struct{}

	done chan struct{} // closed once body/err are final
	body []byte
	err  error
}

func newRun(key string, spec core.RunSpec) *run {
	return &run{
		key:    key,
		spec:   spec,
		status: statusQueued,
		subs:   make(map[chan progressPoint]struct{}),
		done:   make(chan struct{}),
	}
}

// setRunning marks the transition out of the queue.
func (r *run) setRunning() {
	r.mu.Lock()
	r.status = statusRunning
	r.mu.Unlock()
}

// snapshot returns the current status, progress and terminal error
// consistently.
func (r *run) snapshot() (runStatus, progressPoint, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, r.progress, r.err
}

// setFanout records the shard count the executor chose for this run.
func (r *run) setFanout(n int) {
	r.mu.Lock()
	r.fanout = n
	r.mu.Unlock()
}

// fanoutWidth reports the recorded shard count (0 for direct execution).
func (r *run) fanoutWidth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fanout
}

// publishProgress is the engines' progress callback: both engines
// serialize their calls, so this only fans out. Subscriber channels are
// buffered and lossy — a slow SSE client drops intermediate points, not
// the stream; the terminal event rides r.done, never these channels.
func (r *run) publishProgress(done, total int) {
	p := progressPoint{Done: done, Total: total}
	r.mu.Lock()
	r.progress = p
	for ch := range r.subs {
		select {
		case ch <- p:
		default:
		}
	}
	r.mu.Unlock()
}

// subscribe registers an SSE listener for progress points.
func (r *run) subscribe() chan progressPoint {
	ch := make(chan progressPoint, 16)
	r.mu.Lock()
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	return ch
}

func (r *run) unsubscribe(ch chan progressPoint) {
	r.mu.Lock()
	delete(r.subs, ch)
	r.mu.Unlock()
}

// finish publishes the terminal state — done or failed — and wakes every
// waiter.
func (r *run) finish(body []byte, err error) {
	r.mu.Lock()
	if err != nil {
		r.status = statusFailed
	} else {
		r.status = statusDone
	}
	r.body, r.err = body, err
	r.mu.Unlock()
	close(r.done)
}

// worker drains the queue until it closes (Drain) — each iteration
// executes one run start-to-finish, so the pool size bounds concurrent
// engine work regardless of how deep the queue is.
func (s *Server) worker() {
	defer s.workers.Done()
	for r := range s.queue {
		s.execute(r)
	}
}

// execute runs one spec through core with the per-run budget, renders
// the deterministic result body, caches it on success, and retires the
// in-flight record — publishing the terminal state first, so a status
// query can never find the key gone before waiters know the outcome.
// Failures move to the bounded failed table instead of vanishing: GET
// /v1/runs/{id} answers "failed" with the error rather than 404. The run
// context derives from the server's base context — canceled only by a
// hard stop, not by a graceful drain, which is what lets Drain finish
// in-flight work — plus the per-run timeout.
func (s *Server) execute(r *run) {
	r.setRunning()
	var body []byte
	var err error
	if n := s.fanoutShards(r.spec); n > 0 {
		// Heavy run: fan out over n shards inside this executor slot
		// (see fanout.go). The fan-out context — not the base context —
		// governs the shards, so a graceful drain checkpoints them.
		r.setFanout(n)
		body, err = s.executeFanout(r, n)
	} else {
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RunTimeout)
		body, err = s.runBody(ctx, r)
		cancel()
	}
	if err == nil {
		// The terminal progress snapshot travels with the cached body so
		// the SSE cached path can replay the same 100% frame the live
		// stream ended with.
		_, p, _ := r.snapshot()
		s.cache.Add(r.key, r.spec.Workload, body, p)
	}
	r.finish(body, err)
	s.mu.Lock()
	delete(s.inflight, r.key)
	if err != nil {
		s.recordFailedLocked(r)
	} else {
		// A success supersedes any stale failure record for the key.
		delete(s.failed, r.key)
	}
	s.mu.Unlock()
}

// recordFailedLocked retains a failed run for status queries, evicting
// the oldest record beyond the bound. Caller holds s.mu.
func (s *Server) recordFailedLocked(r *run) {
	if _, ok := s.failed[r.key]; !ok {
		s.failedOrder = append(s.failedOrder, r.key)
	}
	s.failed[r.key] = r
	for len(s.failedOrder) > maxFailedRetained {
		delete(s.failed, s.failedOrder[0])
		s.failedOrder = s.failedOrder[1:]
	}
}

// runEnvelope is the deterministic result body: every field is a pure
// function of the run key (the id IS the key), so a cached response is
// byte-identical to the cold one. Timing and cache status travel in
// headers (X-Mpvar-Cache, X-Mpvar-Elapsed-Ms), never in the body.
type runEnvelope struct {
	ID       string          `json:"id"`
	Engine   string          `json:"engine"`
	Workload string          `json:"workload"`
	Process  string          `json:"process"`
	Seed     int64           `json:"seed"`
	Samples  int             `json:"samples"`
	FastSeed bool            `json:"fastseed"`
	Params   map[string]any  `json:"params"`
	Tables   json.RawMessage `json:"tables"`
}

// runBody executes the spec directly and renders the envelope.
func (s *Server) runBody(ctx context.Context, r *run) ([]byte, error) {
	res, err := r.spec.Run(
		core.WithContext(ctx),
		core.WithWorkers(s.cfg.EngineWorkers),
		core.WithProgress(r.publishProgress),
	)
	if err != nil {
		return nil, err
	}
	return s.renderBody(r, res)
}

// renderBody renders a result into the deterministic body — shared by
// direct execution and the fan-out reduce, which is what makes the two
// paths byte-identical for the same key.
func (s *Server) renderBody(r *run, res *exp.Result) ([]byte, error) {
	tables, err := report.EncodeTables(report.FormatJSON, res.Tables...)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(runEnvelope{
		ID:       r.key,
		Engine:   core.EngineVersion,
		Workload: r.spec.Workload,
		Process:  r.spec.Process,
		Seed:     r.spec.Seed,
		Samples:  r.spec.Samples,
		FastSeed: r.spec.FastSeed,
		Params:   r.spec.Params,
		Tables:   json.RawMessage(tables),
	})
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// Drain gracefully shuts the executor pool down: new submissions are
// already being refused (the caller flips draining via beginDrain or
// this call does), the queue closes so workers exit after finishing
// every queued and in-flight run, and Drain returns when the pool is
// idle. If ctx expires first, in-flight runs are hard-canceled through
// the base context and Drain still waits for the workers to return
// before reporting the deadline error. Last, the shard-worker role
// closes: once its in-flight dispatches return (the drain canceled them
// through the fan-out context), its temporary scratch directory is
// removed.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		s.stop() // hard-cancel in-flight runs between blocks/transients
		<-idle
		err = ctx.Err()
	}
	return errors.Join(err, s.remoteWorker.Close())
}

// beginDrain flips the server into draining mode and closes the queue
// exactly once. Submissions observe draining under the same lock that
// guards the queue send, so no submit can race the close. Fan-out runs
// are canceled (not awaited): their shards persist frontier checkpoints
// under FanoutDir and the run fails with a resume hint, so a restarted
// server pointed at the same directory resumes instead of recomputing —
// heavy runs are exactly the ones too expensive to block a shutdown on.
// Direct runs still drain to completion.
func (s *Server) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	s.fanoutStop()
	close(s.queue)
}

// Draining reports whether the server has stopped accepting new runs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// submitOutcome classifies what happened to a submission.
type submitOutcome int

const (
	submitAttached submitOutcome = iota // joined an identical in-flight run
	submitQueued                        // enqueued a fresh run
	submitShed                          // queue full — 429
	submitDraining                      // server draining — 503
)

// submit resolves a normalized spec to a run record: attach to the
// identical in-flight run if one exists (single-flight), otherwise
// enqueue a new one — unless the server is draining or the queue is at
// its depth limit. The cache is the caller's business (checked before
// submit so hits never touch the lock).
func (s *Server) submit(key string, spec core.RunSpec) (*run, submitOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.inflight[key]; ok {
		return r, submitAttached
	}
	if s.draining {
		return nil, submitDraining
	}
	r := newRun(key, spec)
	select {
	case s.queue <- r:
		s.inflight[key] = r
		return r, submitQueued
	default:
		return nil, submitShed
	}
}

// elapsedMS renders a duration for the X-Mpvar-Elapsed-Ms header with
// sub-millisecond resolution (cache hits finish in microseconds).
func elapsedMS(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds()*1e3, 'f', 3, 64)
}
