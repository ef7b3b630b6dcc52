package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/serve"
)

// mixConfig shapes one serve-mix cycle: a hit phase of hitClients
// clients re-POSTing the warm specs, then a compute phase of one client
// issuing cold requests with fresh seeds, one of which fans out.
type mixConfig struct {
	warm          int // warm specs cached during set-up
	hitsPerClient int // re-POSTs per hit client per cycle
	cold          int // cold requests per cycle, the fan-out one included
	coldSamples   int // budget of a direct cold request
	fanoutSamples int // budget of the fanned-out request
	minSamples    int // the server's FanoutMinSamples; 0 = its default
}

const (
	hitClients = 2
	// fanoutWidth is the serve-mix server's shard count.
	fanoutWidth = 2
)

// serveMix is the workload's cycle, about 2.5 s on two cores. Its mix is
// an assumption, not a measured request mix: the workload's specification
// of 3000 hits to 100 direct cold and 20 fanned-out runs (25 hits per
// compute request, 5 direct runs per fanned-out one), scaled down to one
// cycle so that several fit in a window — 2 × 75 hits, then five direct
// cold runs and one fanned-out run.
var serveMix = mixConfig{warm: 8, hitsPerClient: 75, cold: 6, coldSamples: 3000, fanoutSamples: 50000}

// serveProbe is one small cycle for the serve probe of other workloads;
// its server fans out at the probe budget.
var serveProbe = mixConfig{warm: 2, hitsPerClient: 50, cold: 4, coldSamples: 1000, fanoutSamples: probeSamples, minSamples: probeSamples}

// runRequest is the POST /v1/runs body.
type runRequest struct {
	Workload string         `json:"workload"`
	Params   map[string]any `json:"params,omitempty"`
	Seed     int64          `json:"seed"`
	Samples  int            `json:"samples,omitempty"`
}

func (r runRequest) spec() core.RunSpec {
	return core.RunSpec{Workload: r.Workload, Params: exp.Params(r.Params), Seed: r.Seed, Samples: r.Samples}
}

// warmSpecs are the cached specs of the hit phase: Fig. 5 at every DOE
// size and a Table IV sweep at seeds from the run seed, plus three
// seed-free analytic tables.
func warmSpecs(seed int64, n int) []runRequest {
	all := []runRequest{
		{Workload: "fig5", Params: map[string]any{"n": 64}, Seed: jobSeed(seed, 10), Samples: 1000},
		{Workload: "table1"},
		{Workload: "fig5", Params: map[string]any{"n": 16}, Seed: jobSeed(seed, 11), Samples: 1000},
		{Workload: "fig3"},
		{Workload: "fig5", Params: map[string]any{"n": 256}, Seed: jobSeed(seed, 12), Samples: 1000},
		{Workload: "sens"},
		{Workload: "fig5", Params: map[string]any{"n": 1024}, Seed: jobSeed(seed, 13), Samples: 1000},
		{Workload: "table4", Seed: jobSeed(seed, 14), Samples: 500},
	}
	return all[:n]
}

// server is an in-process serve.Server on a loopback port.
type server struct {
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startServer(cfg serve.Config) (*server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := serve.New(cfg)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { ready <- a }) }()
	select {
	case a := <-ready:
		return &server{
			url: "http://" + a.String(),
			client: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: hitClients, MaxIdleConnsPerHost: hitClients,
			}},
			cancel: cancel,
			done:   done,
		}, nil
	case err := <-done:
		cancel()
		dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
		defer dcancel()
		return nil, errors.Join(err, srv.Drain(dctx))
	}
}

// stop shuts the server down and waits until it has drained.
func (s *server) stop() error {
	s.cancel()
	err := <-s.done
	s.client.CloseIdleConnections()
	return err
}

// reply is one answered request as the client saw it.
type reply struct {
	status    int
	body      []byte
	cache     string  // X-Mpvar-Cache
	fanout    string  // X-Mpvar-Fanout
	handlerMS float64 // X-Mpvar-Elapsed-Ms: the server's own handling time
	ms        float64 // client-measured latency
}

func (s *server) post(r runRequest) (reply, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/v1/runs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	ms := msSince(t0)
	if err != nil {
		return reply{}, err
	}
	h, _ := strconv.ParseFloat(resp.Header.Get("X-Mpvar-Elapsed-Ms"), 64) // absent on errors: the status check reports those
	return reply{
		status: resp.StatusCode, body: body, ms: ms, handlerMS: h,
		cache: resp.Header.Get("X-Mpvar-Cache"), fanout: resp.Header.Get("X-Mpvar-Fanout"),
	}, nil
}

// health is the part of GET /v1/healthz the benchmark reads.
type health struct {
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	Fanout        struct {
		Runs               int64 `json:"runs"`
		ShardsRedispatched int64 `json:"shards_redispatched"`
	} `json:"fanout"`
}

func (s *server) health() (health, error) {
	var h health
	resp, err := s.client.Get(s.url + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// ---------------------------------------------------------------- serve-mix

type mixSession struct {
	e      *env
	cfg    mixConfig
	srv    *server
	warm   []runRequest
	bodies [][]byte // body first seen for each warm spec
	rng    *rand.Rand
	cold   int // cold requests issued so far: their seeds are fresh
	// firstFanout is the first fanned-out request and its body, compared
	// after the window with an unsharded server's answer.
	firstFanout     *runRequest
	firstFanoutBody []byte
}

func openServeMix(e *env) (session, error) { return openMix(e, serveMix) }

// openMix starts the server — one executor, one engine worker per run
// or shard, fan-out two wide on goroutines — and caches the warm specs.
func openMix(e *env, cfg mixConfig) (*mixSession, error) {
	srv, err := startServer(serve.Config{
		Workers: 1, EngineWorkers: 1, Fanout: fanoutWidth, FanoutExec: "goroutine",
		FanoutMinSamples: cfg.minSamples, FanoutDir: filepath.Join(e.scratch, "fanout"),
	})
	if err != nil {
		return nil, err
	}
	s := &mixSession{e: e, cfg: cfg, srv: srv, warm: warmSpecs(e.seed, cfg.warm), rng: rand.New(rand.NewSource(e.seed))}
	for _, r := range s.warm {
		rep, err := srv.post(r)
		if err == nil {
			err = expect(rep, "miss", "")
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm %s: %w", r.Workload, err)
		}
		s.bodies = append(s.bodies, rep.body)
	}
	return s, nil
}

// expect checks a reply's status and execution headers.
func expect(rep reply, cache, fanout string) error {
	if rep.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	if rep.cache != cache || rep.fanout != fanout {
		return fmt.Errorf("X-Mpvar-Cache %q X-Mpvar-Fanout %q, want %q %q", rep.cache, rep.fanout, cache, fanout)
	}
	return nil
}

func (s *mixSession) measure(w *window, deadline time.Time) error {
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := s.hitPhase(w); err != nil {
			return err
		}
		if err := s.computePhase(w); err != nil {
			return err
		}
	}
	return nil
}

// hitPhase runs the hit clients concurrently, each re-POSTing warm specs
// in a seeded order; every body must equal the one first seen.
func (s *mixSession) hitPhase(w *window) error {
	lat := make([][]float64, hitClients)
	errs := make([]error, hitClients)
	var wg sync.WaitGroup
	for c := 0; c < hitClients; c++ {
		rng := rand.New(rand.NewSource(s.rng.Int63()))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < s.cfg.hitsPerClient; i++ {
				k := rng.Intn(len(s.warm))
				ms, err := s.request(s.warm[k], "hit", s.bodies[k])
				if err != nil {
					errs[c] = err
					return
				}
				lat[c] = append(lat[c], ms)
			}
		}(c)
	}
	wg.Wait()
	for c := range lat {
		w.attempted += len(lat[c])
		w.ops += float64(len(lat[c]))
		for _, ms := range lat[c] {
			w.latency("hit", ms)
		}
	}
	if err := errors.Join(errs...); err != nil {
		w.attempted++
		w.failed++
		return err
	}
	return nil
}

// computePhase issues the cycle's cold requests from one client, each at
// a fresh seed so it misses the cache; one, at a seeded position, is big
// enough to fan out.
func (s *mixSession) computePhase(w *window) error {
	fan := s.rng.Intn(s.cfg.cold)
	for i := 0; i < s.cfg.cold; i++ {
		r := runRequest{Workload: "fig5", Params: map[string]any{"n": paperN}, Seed: jobSeed(s.e.seed, 1000+s.cold), Samples: s.cfg.coldSamples}
		class := "cold"
		if i == fan {
			r.Samples, class = s.cfg.fanoutSamples, "fanout"
		}
		s.cold++
		w.attempted++
		ms, err := s.request(r, class, nil)
		if err != nil {
			w.failed++
			return err
		}
		w.ops++
		w.jobs = append(w.jobs, ms)
		w.latency(class, ms)
	}
	return nil
}

// request sends r and checks the answer. A hit must return want byte
// for byte; a cold answer must carry its own content address as id and
// valid Fig. 5 statistics. Traced, the request and the client-side key
// computation are spans, and the latency, the server's handling time and
// the rest of the latency (transport, client) are observations.
func (s *mixSession) request(r runRequest, class string, want []byte) (float64, error) {
	tr := s.e.tr
	op := tr.op()
	if tr != nil {
		sp := tr.begin("core.Key", 0, op)
		_, err := r.spec().Key()
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	sp := tr.begin("serve.request."+class, 0, op)
	rep, err := s.srv.post(r)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	tr.observe("serve.latency_ms."+class, rep.ms)
	tr.observe("serve.handler_ms."+class, rep.handlerMS)
	tr.observe("serve.transport_ms."+class, rep.ms-rep.handlerMS)
	switch class {
	case "hit":
		err = expect(rep, "hit", "")
		if err == nil && !bytes.Equal(rep.body, want) {
			err = errors.New("hit body differs from the body first served")
		}
	case "cold":
		err = expect(rep, "miss", "")
	case "fanout":
		err = expect(rep, "miss", strconv.Itoa(fanoutWidth))
		if err == nil && s.firstFanout == nil {
			s.firstFanout, s.firstFanoutBody = &r, rep.body
		}
	}
	if err == nil && class != "hit" {
		err = s.checkCold(r, rep.body)
	}
	if err != nil {
		return 0, fmt.Errorf("%s %s seed %d: %w", class, r.Workload, r.Seed, err)
	}
	return rep.ms, nil
}

// checkCold checks a computed Fig. 5 body: the id is the spec's content
// address and every stream has accepted draws within the budget and a
// finite summary with σ > 0.
func (s *mixSession) checkCold(r runRequest, body []byte) error {
	var env struct {
		ID      string `json:"id"`
		Samples int    `json:"samples"`
		Tables  []struct {
			Rows []struct {
				Option  string  `json:"option"`
				Samples int     `json:"samples"`
				Mean    float64 `json:"mean_pp"`
				Std     float64 `json:"std_pp"`
			} `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	key, err := r.spec().Key()
	if err != nil {
		return err
	}
	if env.ID != key || env.Samples != r.Samples || len(env.Tables) != 1 || len(env.Tables[0].Rows) == 0 {
		return fmt.Errorf("body id %.12s samples %d tables %d, want id %.12s samples %d and one table", env.ID, env.Samples, len(env.Tables), key, r.Samples)
	}
	for _, row := range env.Tables[0].Rows {
		if row.Samples < 1 || row.Samples > r.Samples {
			return fmt.Errorf("%s: %d accepted of %d draws", row.Option, row.Samples, r.Samples)
		}
		if err := checkSummary("fig5 "+row.Option, row.Mean, row.Std); err != nil {
			return err
		}
		s.e.tr.observe("mc.rejected", float64(r.Samples-row.Samples))
		s.e.tr.observe("mc.drawn", float64(r.Samples))
	}
	return nil
}

// verify reads the server's counters and checks the first fanned-out
// body against the same spec answered by a server that never fans out.
func (s *mixSession) verify() error {
	h, err := s.srv.health()
	if err != nil {
		return err
	}
	if h.Fanout.Runs < 1 {
		return fmt.Errorf("healthz: %d fan-out runs, want at least one", h.Fanout.Runs)
	}
	s.e.tr.observe("serve.cache_hit_ratio", h.CacheHitRatio)
	s.e.tr.observe("serve.fanout_runs", float64(h.Fanout.Runs))
	s.e.tr.observe("serve.shards_redispatched", float64(h.Fanout.ShardsRedispatched))

	ref, err := startServer(serve.Config{Workers: 1, EngineWorkers: engineWorkers, Fanout: 1})
	if err != nil {
		return err
	}
	rep, err := ref.post(*s.firstFanout)
	err = errors.Join(err, ref.stop())
	if err == nil {
		err = expect(rep, "miss", "")
	}
	if err == nil && !bytes.Equal(rep.body, s.firstFanoutBody) {
		err = errors.New("fanned-out body differs from the unsharded server's")
	}
	if err != nil {
		return fmt.Errorf("fan-out check, seed %d: %w", s.firstFanout.Seed, err)
	}
	return nil
}

func (s *mixSession) close() {
	if err := s.srv.stop(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(s.e.log, "serve-mix: server stop: %v\n", err)
	}
	os.RemoveAll(filepath.Join(s.e.scratch, "fanout"))
}

// probeServe runs one small serve cycle for the serve layer's metrics.
func probeServe(e *env) error {
	s, err := openMix(e, serveProbe)
	if err != nil {
		return err
	}
	defer s.close()
	var w window
	if err := s.measure(&w, time.Now()); err != nil {
		return err
	}
	return s.verify()
}
