// Fan-out executor: heavy submissions split into N contiguous-block
// shards that execute concurrently and reduce through the exact
// left-fold replay (core.RunShard / core.Reduce), so the response body
// is byte-identical to the single-process run and lands in the same
// cache entry — the run key is the identity either way, fan-out is pure
// execution detail.
//
// A run fans out when its estimated cost (normalized samples × the
// workload's Hints.Cost weight) crosses Config.FanoutMinSamples and the
// fan-out width — Config.Fanout, capped at the stream's block count — is
// ≥ 2. The whole fan-out occupies ONE executor slot: the worker that
// picked the run up dispatches the shards, aggregates their frontiers
// into the run's monotone progress stream, and blocks until the reduce
// renders the body — the pool size keeps bounding concurrent
// submissions while each heavy one uses more of the machine.
//
// Shards write self-identifying artifacts to Config.FanoutDir under
// their run key, which buys three properties at once: a crashed or
// re-dispatched shard resumes from its persisted frontier instead of
// recomputing; a graceful drain (which cancels only fan-out runs —
// direct runs still finish) leaves resumable checkpoints behind; and a
// restarted server pointed at the same directory picks those
// checkpoints up on the next submission of the same key.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/mc"
	"mpsram/internal/remote"
)

const (
	// defaultFanoutMinSamples is the cost threshold (in analytic-trial
	// equivalents: normalized samples × Hints.Cost) below which runs stay
	// single-process: default-budget analytic workloads (fig5 at 10 000
	// samples × cost 1) and smoke-sized SPICE runs fall under it, while a
	// default mcspice (200 samples × cost 4000) clears it comfortably.
	defaultFanoutMinSamples = 50000
	// maxShardAttempts bounds re-dispatch of a failing shard; each retry
	// resumes from the frontier the failed attempt persisted.
	maxShardAttempts = 3
	// shardRetryBackoff / shardRetryBackoffCap pace re-dispatches: the
	// wait doubles per attempt up to the cap, so a transiently sick
	// vehicle (a peer mid-restart) gets a beat to recover instead of
	// burning the whole attempt budget instantly.
	shardRetryBackoff    = 50 * time.Millisecond
	shardRetryBackoffCap = 2 * time.Second
)

// fanoutStats are the /v1/healthz counters for the fan-out executor.
type fanoutStats struct {
	runs               atomic.Int64 // submissions executed as fan-outs
	inflightShards     atomic.Int64 // shards executing right now (gauge)
	shardsResumed      atomic.Int64 // shards continued from a checkpoint
	shardsRedispatched atomic.Int64 // shard attempts after a failure
}

// shardExec is the execution vehicle for one shard: run it (resuming any
// checkpoint at path) to a complete artifact at path, reporting frontier
// progress. Implementations must be safe for concurrent shards.
type shardExec interface {
	runShard(ctx context.Context, spec core.RunSpec, shard mc.ShardSpec, path string, progress func(done, total int)) error
}

// goroutineExec executes a shard in-process — a core.RunShard call on a
// goroutine inside the fan-out's executor slot. The default vehicle:
// shared address space, cancellation between blocks.
type goroutineExec struct{ workers int }

func (e goroutineExec) runShard(ctx context.Context, spec core.RunSpec, shard mc.ShardSpec, path string, progress func(done, total int)) error {
	return core.RunShard(spec, shard, path,
		core.ShardRunOptions{Resume: true, Progress: progress},
		core.WithContext(ctx), core.WithWorkers(e.workers))
}

// shardProgress merges per-shard frontier observations into one monotone
// global (done, total) stream for the run's SSE subscribers. Per-shard
// done is monotone at the source; stale observations (a re-dispatched
// attempt warming back up to its checkpoint) are dropped, so the
// published aggregate never regresses.
type shardProgress struct {
	mu      sync.Mutex
	done    []int
	total   []int
	publish func(done, total int)
}

func newShardProgress(n int, publish func(done, total int)) *shardProgress {
	return &shardProgress{done: make([]int, n), total: make([]int, n), publish: publish}
}

func (a *shardProgress) update(i, done, total int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if done < a.done[i] {
		return
	}
	a.done[i] = done
	if total > a.total[i] {
		a.total[i] = total
	}
	var d, t int
	for j := range a.done {
		d += a.done[j]
		t += a.total[j]
	}
	if t > 0 {
		a.publish(d, t)
	}
}

// fanoutShards decides whether a normalized spec fans out, and into how
// many shards: Config.Fanout capped at the stream's block count
// (mc.Blocks of the budget) when that width is ≥ 2 and the estimated
// cost crosses the threshold, 0 (single-process) otherwise. Workloads
// without a Cost hint never fan out — their runtime is not in the
// shardable Monte-Carlo stream, so shards would multiply work instead
// of dividing it. The cap keeps a SPICE budget of one block per stream
// direct: one shard would run every trial while the others and the
// reduce only repeated its nominal reads.
func (s *Server) fanoutShards(spec core.RunSpec) int {
	width := min(s.cfg.Fanout, mc.Blocks(spec.Samples))
	if width < 2 {
		return 0
	}
	w, err := exp.LookupWorkload(spec.Workload)
	if err != nil || float64(spec.Samples)*w.Hints.Cost < float64(s.cfg.FanoutMinSamples) {
		return 0
	}
	return width
}

// executeFanout runs one submission as nshards concurrent shard
// executions plus the exact-replay reduce, inside the calling worker's
// executor slot. Pre-existing checkpoints under the run's key resume;
// failed shards re-dispatch; a drain cancellation leaves every shard's
// frontier checkpointed for the next server generation.
func (s *Server) executeFanout(r *run, nshards int) ([]byte, error) {
	s.fanout.runs.Add(1)
	ctx, cancel := context.WithTimeout(s.fanoutCtx, s.cfg.RunTimeout)
	defer cancel()
	if err := os.MkdirAll(s.cfg.FanoutDir, 0o755); err != nil {
		return nil, fmt.Errorf("fan-out scratch dir: %w", err)
	}
	agg := newShardProgress(nshards, r.publishProgress)
	paths := make([]string, nshards)
	for i := range paths {
		paths[i] = filepath.Join(s.cfg.FanoutDir, core.ShardArtifactName(r.key, i, nshards))
		art, err := core.ReadShardArtifact(paths[i])
		switch {
		case err == nil && art.Header.RunKey == r.key && art.Header.ShardIndex == i && art.Header.ShardCount == nshards:
			// A checkpoint a drained (or crashed) predecessor left behind:
			// resume it, and let its frontier show as progress immediately.
			s.fanout.shardsResumed.Add(1)
			done, total := art.Payload.Frontier(mc.ShardSpec{Index: i, Count: nshards})
			agg.update(i, done, total)
		case err == nil || !errors.Is(err, os.ErrNotExist):
			// A foreign, stale or corrupt file squatting on our name —
			// clear it so the shard starts fresh.
			os.Remove(paths[i])
		}
	}
	// The dispatcher reads s.shardRunner at run time, so tests swapping
	// the vehicle after New() see their stand-in used.
	disp := shardDispatcher{
		exec: s.shardRunner, attempts: maxShardAttempts,
		backoff: shardRetryBackoff, backoffCap: shardRetryBackoffCap,
		onRedispatch: func() { s.fanout.shardsRedispatched.Add(1) },
	}
	errs := make([]error, nshards)
	var wg sync.WaitGroup
	for i := 0; i < nshards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.fanout.inflightShards.Add(1)
			defer s.fanout.inflightShards.Add(-1)
			errs[i] = disp.run(ctx, r.spec, mc.ShardSpec{Index: i, Count: nshards}, paths[i],
				func(done, total int) { agg.update(i, done, total) })
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		if s.fanoutCtx.Err() != nil && s.baseCtx.Err() == nil {
			return nil, fmt.Errorf("interrupted by drain; %d shards checkpointed under %s — resubmit after restart to resume: %w",
				nshards, s.cfg.FanoutDir, err)
		}
		return nil, err
	}
	res, err := core.Reduce(paths, core.WithContext(ctx), core.WithWorkers(s.cfg.EngineWorkers))
	if err != nil {
		return nil, err
	}
	body, err := s.renderBody(r, res)
	if err != nil {
		return nil, err
	}
	// The reduced body is cached by the caller under the same key direct
	// execution would use; the scratch artifacts have served their
	// purpose. Kept on any error path above, so a failed reduce or a
	// drain can still resume.
	for _, p := range paths {
		os.Remove(p)
	}
	return body, nil
}

// shardDispatcher drives one shard to completion through an execution
// vehicle — the single attempt-budget + resume policy both vehicles
// (goroutine, remote) share. A failed attempt (a shard error, a dead
// peer, a flaky transport) re-dispatches after a capped exponential
// backoff, resuming from whatever frontier the failed attempt persisted,
// so completed blocks are never re-executed. Cancellation is terminal —
// a drain must not fight the retry loop.
type shardDispatcher struct {
	exec         shardExec
	attempts     int
	backoff      time.Duration
	backoffCap   time.Duration
	onRedispatch func()
}

func (d shardDispatcher) run(ctx context.Context, spec core.RunSpec, shard mc.ShardSpec, path string, progress func(done, total int)) error {
	var err error
	delay := d.backoff
	for attempt := 0; attempt < d.attempts; attempt++ {
		if attempt > 0 {
			if d.onRedispatch != nil {
				d.onRedispatch()
			}
			select {
			case <-ctx.Done():
				return err
			case <-time.After(delay):
			}
			if delay *= 2; delay > d.backoffCap {
				delay = d.backoffCap
			}
		}
		if err = d.exec.runShard(ctx, spec, shard, path, progress); err == nil || ctx.Err() != nil {
			return err
		}
	}
	return fmt.Errorf("shard %d/%d failed %d attempts: %w", shard.Index, shard.Count, d.attempts, err)
}

// remoteExec dispatches shards to peer `mpvar serve` workers through the
// pool. Falls back to in-process execution when no peer is live — a dead
// worker fleet costs latency, never a failed run — while any other error
// (a mid-stream death, a worker-side failure) surfaces to the dispatcher,
// whose retry lands on another live peer resuming from the last shipped
// checkpoint.
type remoteExec struct {
	pool  *remote.Pool
	local goroutineExec
}

func (e remoteExec) runShard(ctx context.Context, spec core.RunSpec, shard mc.ShardSpec, path string, progress func(done, total int)) error {
	err := e.pool.ExecuteShard(ctx, spec, shard, path, progress)
	if errors.Is(err, remote.ErrNoLivePeers) {
		return e.local.runShard(ctx, spec, shard, path, progress)
	}
	return err
}
