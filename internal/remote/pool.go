// Coordinator side of the shard fabric: a health-checked peer pool and
// the single-dispatch primitive the serve layer's retry policy drives.
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
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/mc"
)

// ErrNoLivePeers reports that no configured peer is currently live; the
// caller falls back to local execution rather than failing the shard.
var ErrNoLivePeers = errors.New("remote: no live peers")

const (
	// defaultDispatchTimeout bounds connect + response headers for one
	// dispatch; past it the peer is marked down and the shard retries
	// elsewhere.
	defaultDispatchTimeout = 5 * time.Second
	// defaultStallTimeout bounds silence mid-stream. Workers ship
	// checkpoint or progress frames far more often than this while
	// healthy, so a stalled stream means the peer died with the
	// connection half-open.
	defaultStallTimeout = 60 * time.Second
	// defaultHealthEvery paces the background health sweep.
	defaultHealthEvery = 3 * time.Second
	// sweepDebounce rate-limits the on-demand sweep a dispatch triggers
	// when it finds no live peer.
	sweepDebounce = 250 * time.Millisecond
	// maxHealthzBytes bounds the peer healthz body the sweep reads: a
	// few hundred bytes of counters in practice, so a larger body fails
	// the check instead of being buffered.
	maxHealthzBytes = 64 << 10
)

// PoolStats are the /v1/healthz counters for the coordinator role.
type PoolStats struct {
	Dispatched   atomic.Int64 // shard dispatches sent to peers
	ShippedBytes atomic.Int64 // artifact + checkpoint bytes received
	FailedOver   atomic.Int64 // dispatches that failed and were handed back for re-dispatch
}

// peer is one configured worker endpoint.
type peer struct {
	url      string
	live     atomic.Bool
	inflight atomic.Int64
}

// PoolConfig tunes a Pool; zero values take the defaults above.
type PoolConfig struct {
	DispatchTimeout time.Duration
	StallTimeout    time.Duration
	HealthEvery     time.Duration
}

// Pool picks live, least-loaded peers for shard dispatches and tracks
// their health via GET /v1/healthz: a peer is live when it answers
// status "ok" with this build's engine version — a draining or
// version-drifted peer is excluded before any shard bytes move.
type Pool struct {
	peers  []*peer
	client *http.Client
	cfg    PoolConfig
	stats  PoolStats

	sweepMu   sync.Mutex
	lastSweep time.Time
	sweepDone chan struct{} // closed when the most recent sweep finished
}

// NewPool builds a pool over the given peer addresses ("host:port" or
// full URLs). No health state is assumed; run Healthz (or Run) before
// expecting live peers.
func NewPool(addrs []string, cfg PoolConfig) *Pool {
	if cfg.DispatchTimeout <= 0 {
		cfg.DispatchTimeout = defaultDispatchTimeout
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = defaultStallTimeout
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = defaultHealthEvery
	}
	p := &Pool{client: &http.Client{}, cfg: cfg}
	for _, a := range addrs {
		a = strings.TrimSuffix(a, "/")
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		p.peers = append(p.peers, &peer{url: a})
	}
	return p
}

// Stats exposes the coordinator counters for the healthz body.
func (p *Pool) Stats() *PoolStats { return &p.stats }

// Peers reports configured and currently-live peer counts.
func (p *Pool) Peers() (configured, live int) {
	for _, pe := range p.peers {
		if pe.live.Load() {
			live++
		}
	}
	return len(p.peers), live
}

// peerHealth is the slice of the serve healthz body the sweep reads.
type peerHealth struct {
	Status string `json:"status"`
	Engine string `json:"engine"`
}

// Healthz sweeps every peer once, concurrently, updating liveness.
func (p *Pool) Healthz(ctx context.Context) {
	done := make(chan struct{})
	defer close(done)
	p.sweepMu.Lock()
	p.lastSweep = time.Now()
	p.sweepDone = done
	p.sweepMu.Unlock()
	var wg sync.WaitGroup
	for _, pe := range p.peers {
		wg.Add(1)
		go func(pe *peer) {
			defer wg.Done()
			pe.live.Store(p.check(ctx, pe))
		}(pe)
	}
	wg.Wait()
}

func (p *Pool) check(ctx context.Context, pe *peer) bool {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.DispatchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, pe.url+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h peerHealth
	if resp.StatusCode != http.StatusOK || json.NewDecoder(io.LimitReader(resp.Body, maxHealthzBytes)).Decode(&h) != nil {
		return false
	}
	return h.Status == "ok" && h.Engine == core.EngineVersion
}

// Run sweeps peer health until ctx cancels; the serve layer starts it as
// a background goroutine alongside the executor pool.
func (p *Pool) Run(ctx context.Context) {
	p.Healthz(ctx)
	t := time.NewTicker(p.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.Healthz(ctx)
		}
	}
}

// pick returns the live peer with the fewest in-flight dispatches. When
// none is live it triggers one debounced on-demand sweep (covering the
// coordinator-started-before-its-workers case) before giving up.
func (p *Pool) pick(ctx context.Context) *peer {
	if best := p.pickLive(); best != nil {
		return best
	}
	// A sweep may be mid-flight — the background loop's first pass racing
	// the first dispatch right after startup — so wait it out before
	// deciding the fleet is dead.
	p.sweepMu.Lock()
	inflight := p.sweepDone
	stale := time.Since(p.lastSweep) >= sweepDebounce
	p.sweepMu.Unlock()
	if inflight != nil {
		select {
		case <-inflight:
		case <-ctx.Done():
			return nil
		}
		if best := p.pickLive(); best != nil {
			return best
		}
	}
	if stale {
		p.Healthz(ctx)
	}
	return p.pickLive()
}

func (p *Pool) pickLive() *peer {
	var best *peer
	for _, pe := range p.peers {
		if !pe.live.Load() {
			continue
		}
		if best == nil || pe.inflight.Load() < best.inflight.Load() {
			best = pe
		}
	}
	return best
}

// ExecuteShard performs ONE dispatch of the shard to the best live peer,
// landing every shipped checkpoint — and, on success, the complete
// artifact — at path with the same atomic write discipline local
// execution uses. An existing complete artifact at path short-circuits;
// an existing checkpoint travels with the dispatch so the worker resumes
// instead of recomputing. On any transport failure or worker error the
// peer is marked down (the next health sweep revives it if it recovers)
// and the error is returned: the caller's retry policy re-dispatches,
// resuming from the last checkpoint frame this call landed. Returns
// ErrNoLivePeers without side effects when the pool is empty of live
// peers — the caller's cue to fall back to local execution.
func (p *Pool) ExecuteShard(ctx context.Context, spec core.RunSpec, shard mc.ShardSpec, path string, progress func(done, total int)) error {
	key, err := spec.Key()
	if err != nil {
		return err
	}
	// The file is read once: the checkpoint shipped is the bytes verified.
	var checkpoint []byte
	if data, rerr := os.ReadFile(path); rerr == nil {
		if art, derr := core.DecodeShardArtifact(data); derr == nil && art.Verify(key, shard) == nil {
			if art.Header.Complete {
				return nil
			}
			checkpoint = data
		}
	}
	pe := p.pick(ctx)
	if pe == nil {
		return ErrNoLivePeers
	}
	pe.inflight.Add(1)
	defer pe.inflight.Add(-1)
	p.stats.Dispatched.Add(1)
	err = p.dispatch(ctx, pe, NewShardRequest(spec, shard, key, checkpoint), key, shard, path, progress)
	if err != nil && ctx.Err() == nil {
		p.stats.FailedOver.Add(1)
	}
	return err
}

// dispatch runs one POST /v1/shards exchange against one peer.
func (p *Pool) dispatch(ctx context.Context, pe *peer, sr ShardRequest, key string, shard mc.ShardSpec, path string, progress func(done, total int)) error {
	body, err := json.Marshal(sr)
	if err != nil {
		return err
	}
	// One watchdog timer drives the whole dispatch: it cancels the
	// request context unless the peer keeps producing — first the
	// response headers within DispatchTimeout, then at least one frame
	// every StallTimeout. A worker killed with the connection half-open
	// trips it instead of hanging the shard forever.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(p.cfg.DispatchTimeout, cancel)
	defer watchdog.Stop()

	req, err := http.NewRequestWithContext(rctx, http.MethodPost, pe.url+ShardsPath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		pe.live.Store(false)
		return fmt.Errorf("remote: peer %s: %w", pe.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A refusal is a healthy HTTP exchange, but a refusing peer is
		// useless for this run (drift, drain): stop dispatching to it
		// until a sweep says otherwise. 400 is ours to keep - a malformed
		// dispatch would be malformed everywhere.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode != http.StatusBadRequest {
			pe.live.Store(false)
		}
		return fmt.Errorf("remote: peer %s refused shard %d/%d: %s: %s",
			pe.url, shard.Index, shard.Count, resp.Status, strings.TrimSpace(string(msg)))
	}

	watchdog.Reset(p.cfg.StallTimeout)
	br := bufio.NewReaderSize(resp.Body, maxFrameLine)
	for {
		f, err := readFrame(br)
		if err != nil {
			pe.live.Store(false)
			if err == io.EOF {
				return fmt.Errorf("remote: peer %s: stream ended without a terminal frame", pe.url)
			}
			return fmt.Errorf("remote: peer %s: %w", pe.url, err)
		}
		watchdog.Reset(p.cfg.StallTimeout)
		switch f.kind {
		case frameProgress:
			if progress != nil {
				progress(f.done, f.total)
			}
		case frameCheckpoint:
			// Validate before landing: a drifted or confused worker must
			// not overwrite a good local checkpoint.
			art, verr := core.DecodeShardArtifact(f.data)
			if verr == nil {
				verr = art.Verify(key, shard)
			}
			if verr != nil {
				pe.live.Store(false)
				return fmt.Errorf("remote: peer %s shipped a bad checkpoint: %w", pe.url, verr)
			}
			if werr := core.WriteShardArtifactFile(path, f.data); werr != nil {
				return werr
			}
			p.stats.ShippedBytes.Add(int64(len(f.data)))
		case frameArtifact:
			art, verr := core.DecodeShardArtifact(f.data)
			if verr == nil {
				verr = art.Verify(key, shard)
			}
			if verr == nil && !art.Header.Complete {
				verr = errors.New("artifact is an incomplete checkpoint")
			}
			if verr != nil {
				pe.live.Store(false)
				return fmt.Errorf("remote: peer %s shipped a bad artifact: %w", pe.url, verr)
			}
			if werr := core.WriteShardArtifactFile(path, f.data); werr != nil {
				return werr
			}
			p.stats.ShippedBytes.Add(int64(len(f.data)))
			if progress != nil {
				progress(art.Payload.Frontier(shard))
			}
			return nil
		case frameError:
			// A clean worker-side failure: the peer is alive and
			// responsive, so it stays live — but the shard failed and the
			// caller's retry policy takes over from the last shipped
			// checkpoint.
			return fmt.Errorf("remote: peer %s: shard %d/%d: %s", pe.url, shard.Index, shard.Count, f.msg)
		}
	}
}
