// Package serve exposes the workload registry as a long-running
// HTTP/JSON service — the network face of core.Study.Run, built for
// heavy repeated traffic:
//
//	GET  /v1/workloads        the registry: names, summaries, typed
//	                          parameter schemas, budget hints
//	POST /v1/runs             submit a run (schema-validated); waits for
//	                          the result by default, ?wait=0 returns the
//	                          run id immediately
//	GET  /v1/runs/{id}        result body (cache) or live status
//	GET  /v1/runs/{id}/events SSE progress stream riding the engines'
//	                          serialized progress callbacks
//	GET  /v1/healthz          liveness, drain state and counters
//
// Every run is bit-deterministic in (workload, params, seed, samples,
// process, engine version) — that tuple's SHA-256
// (core.RunSpec.Key) is the run id, the single-flight identity and the
// result cache address, so a repeated query costs a map lookup instead
// of seconds-to-minutes of SPICE transients, identical concurrent
// submissions share one execution, and a cached response is
// byte-identical to the cold one (cache status and timing travel in
// X-Mpvar-* headers, never in the body).
//
// The heavy-traffic controls: a bounded executor pool (Workers) pulls
// runs off a depth-limited queue (MaxQueue) — beyond it submissions shed
// with 429 + Retry-After instead of piling up — each run gets a
// wall-clock budget (RunTimeout) on top of the sample budget its
// workload's Hints advise, and Drain (wired to SIGTERM by `mpvar
// serve`) refuses new work with 503 while letting every queued and
// in-flight run finish. See API.md for the wire contract.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/remote"
)

// Config sizes the service. Zero values take the defaults noted on each
// field.
type Config struct {
	// Workers is the executor pool size: how many runs execute
	// concurrently (default 2). Each executor drives a full study, which
	// parallelizes internally per EngineWorkers.
	Workers int
	// MaxQueue bounds the runs queued behind the pool; submissions
	// beyond it shed with 429 (default 32).
	MaxQueue int
	// CacheSize bounds the content-addressed result cache, in rendered
	// result bodies, evicted LRU (default 256).
	CacheSize int
	// RunTimeout is the per-run wall-clock budget; a run exceeding it is
	// canceled between trial blocks / transients and reported as an
	// error to its waiters (default 15 minutes).
	RunTimeout time.Duration
	// EngineWorkers is the worker count handed to the Monte-Carlo and
	// SPICE engines inside each run (0 = all CPUs). Results are
	// bit-identical for any value — it is not part of the run key.
	EngineWorkers int
	// DrainTimeout bounds ListenAndServe's graceful shutdown; past it,
	// in-flight runs are hard-canceled (default 2 minutes).
	DrainTimeout time.Duration
	// Fanout is the shard count heavy submissions are split into, capped
	// per run at its stream's block count (mc.Blocks); ≥ 2 enables the
	// fan-out executor, 1 disables it, and 0 (the default) adopts the
	// executor pool size. Fan-out never changes response
	// bytes — the reduce replays the exact single-process left-fold —
	// so it is not part of the run key.
	Fanout int
	// FanoutMinSamples is the estimated-cost threshold, in
	// analytic-trial equivalents (normalized samples × the workload's
	// Hints.Cost weight), at or above which a submission fans out
	// (default 50000). Workloads without a Cost hint never fan out
	// regardless.
	FanoutMinSamples int
	// FanoutExec selects the shard execution vehicle: "goroutine"
	// (default, in-process) or "remote" (dispatch shards to the peer
	// `mpvar serve` workers in Peers; a dead peer re-dispatches from the
	// last shipped checkpoint, and no live peers falls back to
	// in-process execution).
	FanoutExec string
	// Peers lists peer `mpvar serve` workers ("host:port" or full URLs)
	// for FanoutExec "remote". Peers are health-checked via their
	// /v1/healthz — a draining or engine-drifted peer is never
	// dispatched to.
	Peers []string
	// FanoutDir is the scratch directory for shard artifacts and drain
	// checkpoints (default <os temp>/mpvar-fanout). A restarted server
	// pointed at the same directory resumes checkpointed shards instead
	// of recomputing them.
	FanoutDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 32
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 15 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Minute
	}
	if c.Fanout <= 0 {
		c.Fanout = c.Workers
	}
	if c.FanoutMinSamples <= 0 {
		c.FanoutMinSamples = defaultFanoutMinSamples
	}
	if c.FanoutExec == "" {
		c.FanoutExec = "goroutine"
	}
	if c.FanoutDir == "" {
		c.FanoutDir = filepath.Join(os.TempDir(), "mpvar-fanout")
	}
	return c
}

// Server is the service state: the result cache, the in-flight run
// table and the executor pool.
type Server struct {
	cfg   Config
	cache *resultCache

	mu       sync.Mutex
	inflight map[string]*run
	// failed retains terminal-error runs (bounded FIFO by failedOrder)
	// so their status stays queryable; bodies are never cached.
	failed      map[string]*run
	failedOrder []string
	draining    bool
	queue       chan *run

	workers sync.WaitGroup
	baseCtx context.Context
	stop    context.CancelFunc
	// sweeper tracks the remote pool's peer health sweep, which runs
	// until Drain cancels baseCtx.
	sweeper sync.WaitGroup

	// Fan-out executor state: fanoutCtx cancels on drain — direct runs
	// finish, fan-out runs checkpoint their shards and fail with a
	// resume hint — and shardRunner is the execution vehicle (tests may
	// swap it before serving traffic).
	fanoutCtx   context.Context
	fanoutStop  context.CancelFunc
	shardRunner shardExec
	fanout      fanoutStats

	// Remote shard fabric: every server carries the worker role (the
	// POST /v1/shards endpoint), so any peer can dispatch to it;
	// remotePool exists only when FanoutExec is "remote" and this server
	// coordinates dispatches of its own.
	remoteWorker *remote.Worker
	remotePool   *remote.Pool
}

// New builds a Server and starts its executor pool. Call Drain to stop.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheSize),
		inflight: make(map[string]*run),
		failed:   make(map[string]*run),
		queue:    make(chan *run, cfg.MaxQueue),
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.fanoutCtx, s.fanoutStop = context.WithCancel(s.baseCtx)
	s.remoteWorker = remote.NewWorker(cfg.Workers, cfg.EngineWorkers)
	if cfg.FanoutExec == "remote" {
		s.remotePool = remote.NewPool(cfg.Peers, remote.PoolConfig{})
		s.shardRunner = remoteExec{pool: s.remotePool, local: goroutineExec{workers: cfg.EngineWorkers}}
		s.sweeper.Add(1)
		go func() {
			defer s.sweeper.Done()
			s.remotePool.Run(s.baseCtx)
		}()
	} else {
		s.shardRunner = goroutineExec{workers: cfg.EngineWorkers}
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST "+remote.ShardsPath, s.handleShards)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// handleShards is the worker role: execute one dispatched shard and
// stream its artifact back (see internal/remote). The fan-out context
// governs execution, so a drain checkpoints remotely-served shards
// exactly like locally fanned-out ones — the last shipped checkpoint
// frame lets the dispatching coordinator resume elsewhere.
func (s *Server) handleShards(w http.ResponseWriter, req *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting new shards")
		return
	}
	s.remoteWorker.ServeShard(s.fanoutCtx, w, req)
}

// errorEnvelope is the uniform error body: one "error" field whose text
// is the underlying registry/validation error verbatim (unknown
// workloads, parameters and processes all answer with their valid-names
// listings).
type errorEnvelope struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the envelope types; keep the wire valid anyway.
		b = []byte(`{"error":"encoding failure"}`)
	}
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorEnvelope{Error: fmt.Sprintf(format, args...)})
}

// The constant header values writeBody assigns straight into the header
// map, under keys already in canonical form, where Header().Set would
// allocate a fresh slice per response. Each has len == cap, so a later
// Header().Add reallocates and never writes into a shared array.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"hit"}
	cacheMiss       = []string{"miss"}
)

// writeBody serves a rendered result body with its cache disposition
// (cacheHit or cacheMiss) and the time since started, in milliseconds
// to three decimals (cache hits finish in microseconds).
func writeBody(w http.ResponseWriter, cache []string, started time.Time, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["X-Mpvar-Cache"] = cache
	var ms [32]byte
	h["X-Mpvar-Elapsed-Ms"] = []string{string(strconv.AppendFloat(ms[:0], time.Since(started).Seconds()*1e3, 'f', 3, 64))}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// ------------------------------------------------------------ workloads

// workloadJSON is the wire form of one registry entry.
type workloadJSON struct {
	Name    string      `json:"name"`
	Summary string      `json:"summary"`
	InAll   bool        `json:"in_all"`
	Params  []paramJSON `json:"params"`
	Hints   hintsJSON   `json:"hints"`
}

type paramJSON struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Default any    `json:"default"`
	Help    string `json:"help"`
}

type hintsJSON struct {
	Samples int `json:"samples"`
	// SamplesCV is the advised budget when the workload runs with its
	// control-variate estimator (cv: true): the paired estimator needs
	// far fewer transients per unit of σ accuracy, so clients sizing a
	// budget from hints should use this one when they set cv.
	SamplesCV int            `json:"samples_cv,omitempty"`
	Smoke     map[string]any `json:"smoke,omitempty"`
	// Cost weighs one Monte-Carlo sample against one analytic trial
	// (samples × cost is the fan-out threshold input); absent means the
	// workload's runtime is not in the shardable Monte-Carlo stream and
	// the server never fans it out.
	Cost float64 `json:"cost,omitempty"`
}

// handleWorkloads serves the registry listing — generated from the same
// descriptors the CLI usage and Study.Run validation use, so the three
// surfaces cannot drift apart.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	ws := exp.Workloads()
	out := struct {
		Engine    string         `json:"engine"`
		Processes []string       `json:"processes"`
		Workloads []workloadJSON `json:"workloads"`
	}{Engine: core.EngineVersion, Processes: core.ProcessNames()}
	for _, wl := range ws {
		wj := workloadJSON{
			Name:    wl.Name,
			Summary: wl.Summary,
			InAll:   wl.InAll,
			Params:  []paramJSON{},
			Hints:   hintsJSON{Samples: wl.Hints.Samples, SamplesCV: wl.Hints.CVSamples, Smoke: wl.Hints.Smoke, Cost: wl.Hints.Cost},
		}
		for _, ps := range wl.Params {
			wj.Params = append(wj.Params, paramJSON{
				Name: ps.Name, Kind: ps.Kind.String(), Default: ps.Default, Help: ps.Help,
			})
		}
		out.Workloads = append(out.Workloads, wj)
	}
	writeJSON(w, http.StatusOK, out)
}

// ------------------------------------------------------------ submit

// runRequest is the POST /v1/runs body. Unknown fields are rejected so a
// misspelled "samples" degrades to 400, not to a silent default budget.
type runRequest struct {
	Workload string         `json:"workload"`
	Params   map[string]any `json:"params"`
	Process  string         `json:"process"`
	Seed     int64          `json:"seed"`
	Samples  int            `json:"samples"`
}

// decodeRunRequest reads a POST /v1/runs body into the spec it names,
// before normalization. Anything but white space after the JSON value
// is refused.
func decodeRunRequest(body io.Reader) (core.RunSpec, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var rr runRequest
	if err := dec.Decode(&rr); err != nil {
		return core.RunSpec{}, err
	}
	// Nothing but white space may follow the value: decoding another one
	// must meet the end of the body.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if tooLarge := (*http.MaxBytesError)(nil); !errors.As(err, &tooLarge) {
			err = errors.New("data after the JSON value")
		}
		return core.RunSpec{}, err
	}
	return core.RunSpec{
		Workload: rr.Workload,
		Params:   exp.Params(rr.Params),
		Process:  rr.Process,
		Seed:     rr.Seed,
		Samples:  rr.Samples,
	}, nil
}

// maxRunRequestBytes caps the POST /v1/runs body. A real run request is
// under 1 KiB; a longer body answers 413 once the cap is read, so no
// submission buffers more than this.
const maxRunRequestBytes = 1 << 20

// statusEnvelope reports a run's lifecycle state. Every status-shaped
// response — live, failed, or the SSE "done" frame for a cached run —
// uses this one envelope, so the field set cannot drift between paths.
type statusEnvelope struct {
	ID       string         `json:"id"`
	Status   runStatus      `json:"status"`
	Workload string         `json:"workload"`
	Error    string         `json:"error,omitempty"`
	Progress *progressPoint `json:"progress,omitempty"`
}

func statusOf(r *run) statusEnvelope {
	st, p, err := r.snapshot()
	env := statusEnvelope{ID: r.key, Status: st, Workload: r.spec.Workload}
	if err != nil {
		env.Error = err.Error()
	}
	if p.Total > 0 {
		env.Progress = &p
	}
	return env
}

// doneEnvelope is the terminal SSE frame for a successful run; the
// cached-run and live-run paths both build it here so they stay
// byte-identical.
func doneEnvelope(id, workload string) statusEnvelope {
	return statusEnvelope{ID: id, Status: statusDone, Workload: workload}
}

// handleSubmit validates, content-addresses and executes (or coalesces,
// or sheds) one run submission.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	started := time.Now()
	raw, err := decodeRunRequest(http.MaxBytesReader(w, req.Body, maxRunRequestBytes))
	if err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	spec, key, err := raw.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if body, _, _, ok := s.cache.Get(key); ok {
		writeBody(w, cacheHit, started, body)
		return
	}
	r, outcome := s.submit(key, spec)
	switch outcome {
	case submitShed:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"run queue full (%d queued); retry shortly", s.cfg.MaxQueue)
		return
	case submitDraining:
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting new runs")
		return
	}
	if req.URL.Query().Get("wait") == "0" {
		writeJSON(w, http.StatusAccepted, statusOf(r))
		return
	}
	select {
	case <-r.done:
	case <-req.Context().Done():
		// The client went away; the run keeps executing and lands in the
		// cache for its next submission.
		return
	}
	if r.err != nil {
		writeError(w, http.StatusInternalServerError, "%v", r.err)
		return
	}
	if n := r.fanoutWidth(); n > 0 {
		// Execution detail, like timing: travels in a header, never in
		// the body (which stays byte-identical to direct execution).
		w.Header().Set("X-Mpvar-Fanout", strconv.Itoa(n))
	}
	writeBody(w, cacheMiss, started, r.body)
}

// ------------------------------------------------------------ run fetch

// handleRun serves a finished run from the cache (byte-identical to the
// submission response), the live status of an in-flight one, or the
// failed status (with the error) of a recently failed one. Only an id
// that was never submitted — or aged out of the bounded failure table or
// the cache — is 404.
func (s *Server) handleRun(w http.ResponseWriter, req *http.Request) {
	started := time.Now()
	id := req.PathValue("id")
	if body, _, _, ok := s.cache.Get(id); ok {
		writeBody(w, cacheHit, started, body)
		return
	}
	s.mu.Lock()
	r, ok := s.inflight[id]
	if !ok {
		r, ok = s.failed[id]
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q (finished-and-evicted or never submitted)", id)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(r))
}

// ------------------------------------------------------------ SSE

// sseEvent writes one Server-Sent Event frame.
func sseEvent(w http.ResponseWriter, f http.Flusher, event string, data any) {
	b, _ := json.Marshal(data)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	f.Flush()
}

// handleEvents streams a run's lifecycle as SSE: an initial "status"
// frame, "progress" frames riding the engines' serialized callbacks, and
// a terminal "done" or "error" frame. Subscribing to an already-cached
// run answers "done" immediately.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	f, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	s.mu.Lock()
	r, inflight := s.inflight[id]
	failed, wasFailed := s.failed[id]
	s.mu.Unlock()
	_, workload, terminal, cached := s.cache.Get(id)
	if !inflight && !cached && !wasFailed {
		writeError(w, http.StatusNotFound, "unknown run %q", id)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if !inflight {
		// Terminal frames for finished runs, identical to what a live
		// subscriber received: the 100% "progress" frame (when the run
		// reported progress at all) then "done" for a cached result,
		// "error" for a retained failure — so cached and live streams
		// end frame-compatibly and clients need no special case.
		if cached {
			if terminal.Total > 0 {
				sseEvent(w, f, "progress", terminal)
			}
			sseEvent(w, f, "done", doneEnvelope(id, workload))
		} else {
			sseEvent(w, f, "error", errorEnvelope{Error: failed.err.Error()})
		}
		return
	}
	sub := r.subscribe()
	defer r.unsubscribe(sub)
	sseEvent(w, f, "status", statusOf(r))
	for {
		select {
		case p := <-sub:
			sseEvent(w, f, "progress", p)
		case <-r.done:
			if r.err != nil {
				sseEvent(w, f, "error", errorEnvelope{Error: r.err.Error()})
			} else {
				// Emit the terminal 100% progress frame before "done" —
				// the lossy subscriber channel may have dropped it — so
				// the stream always ends with the same frame pair the
				// cached path replays.
				if _, p, _ := r.snapshot(); p.Total > 0 {
					sseEvent(w, f, "progress", p)
				}
				sseEvent(w, f, "done", doneEnvelope(r.key, r.spec.Workload))
			}
			return
		case <-req.Context().Done():
			return
		}
	}
}

// ------------------------------------------------------------ health

// healthFanout is the fan-out block of the healthz body: configuration
// plus the executor counters that make load behavior under fan-out
// observable (how many shards are executing right now, how much resumed
// from checkpoints instead of recomputing, how often shards re-dispatched).
type healthFanout struct {
	Shards             int    `json:"shards"`
	Exec               string `json:"exec"`
	MinSamples         int    `json:"min_samples"`
	InflightShards     int64  `json:"inflight_shards"`
	Runs               int64  `json:"runs"`
	ShardsResumed      int64  `json:"shards_resumed"`
	ShardsRedispatched int64  `json:"shards_redispatched"`
}

// healthRemote is the remote-fabric block of the healthz body, covering
// both roles: the coordinator's peer pool (configured/live peers,
// dispatch counters) and the worker's shard service (dispatches served
// for peers, bytes streamed out).
type healthRemote struct {
	PeersConfigured    int   `json:"peers_configured"`
	PeersLive          int   `json:"peers_live"`
	ShardsDispatched   int64 `json:"shards_dispatched"`
	ShippedBytes       int64 `json:"shipped_bytes"`
	FailedOver         int64 `json:"failed_over"`
	WorkerShardsServed int64 `json:"worker_shards_served"`
	WorkerShardsActive int64 `json:"worker_shards_active"`
	WorkerBytesShipped int64 `json:"worker_bytes_shipped"`
}

// handleHealthz reports liveness and the load counters an operator (or a
// drain test) wants: accepting vs draining, in-flight runs and shards,
// queue depth, cache fill and hit ratio.
func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	inflight := len(s.inflight)
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	hits, misses := s.cache.Stats()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rem := healthRemote{
		WorkerShardsServed: s.remoteWorker.Stats().ShardsServed.Load(),
		WorkerShardsActive: s.remoteWorker.Stats().ShardsActive.Load(),
		WorkerBytesShipped: s.remoteWorker.Stats().BytesShipped.Load(),
	}
	if s.remotePool != nil {
		rem.PeersConfigured, rem.PeersLive = s.remotePool.Peers()
		rem.ShardsDispatched = s.remotePool.Stats().Dispatched.Load()
		rem.ShippedBytes = s.remotePool.Stats().ShippedBytes.Load()
		rem.FailedOver = s.remotePool.Stats().FailedOver.Load()
	}
	writeJSON(w, http.StatusOK, struct {
		Status        string       `json:"status"`
		Engine        string       `json:"engine"`
		Inflight      int          `json:"inflight"`
		QueueDepth    int          `json:"queue_depth"`
		Cached        int          `json:"cached"`
		CacheHits     int64        `json:"cache_hits"`
		CacheMisses   int64        `json:"cache_misses"`
		CacheHitRatio float64      `json:"cache_hit_ratio"`
		Workers       int          `json:"workers"`
		MaxQueue      int          `json:"max_queue"`
		Fanout        healthFanout `json:"fanout"`
		Remote        healthRemote `json:"remote"`
	}{
		status, core.EngineVersion, inflight, len(s.queue), s.cache.Len(),
		hits, misses, ratio, s.cfg.Workers, s.cfg.MaxQueue,
		healthFanout{
			Shards:             s.cfg.Fanout,
			Exec:               s.cfg.FanoutExec,
			MinSamples:         s.cfg.FanoutMinSamples,
			InflightShards:     s.fanout.inflightShards.Load(),
			Runs:               s.fanout.runs.Load(),
			ShardsResumed:      s.fanout.shardsResumed.Load(),
			ShardsRedispatched: s.fanout.shardsRedispatched.Load(),
		},
		rem,
	})
}

// ------------------------------------------------------------ serving

// ListenAndServe binds addr (":0" picks a free port), reports the bound
// address through ready, and serves until ctx cancels — then shuts down
// gracefully: the listener closes, in-flight HTTP requests and SSE
// streams finish as their runs complete, queued and running runs drain
// to completion (bounded by DrainTimeout, past which they are
// hard-canceled). The CLI wires SIGTERM/SIGINT to the ctx.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	if ready != nil {
		ready(ln.Addr())
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Refuse new runs first so requests still in flight on kept-alive
	// connections answer 503 instead of queueing work mid-shutdown.
	s.beginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
	}
	return s.Drain(dctx)
}
