package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"mpsram/internal/analytic"
	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/report"
	"mpsram/internal/tech"
)

const (
	// analyticSamples is the draw budget per option of one analytic-mc
	// job: the paper's Fig. 5 at n = 64 and the process overlay budget,
	// cut from 800k so that several jobs fit in one window.
	analyticSamples = 50000
	// analyticReplay is the trials per option replayed call by call
	// after each traced analytic-mc job.
	analyticReplay = 1000
	// probeSamples is the budget of the Monte-Carlo and core probes.
	probeSamples = 6000
)

// render encodes a job's result the way its consumer receives it.
type render func(*exp.Result) ([]byte, error)

func jsonTables(res *exp.Result) ([]byte, error) {
	return report.EncodeTables(report.FormatJSON, res.Tables...)
}

func csvTables(res *exp.Result) ([]byte, error) {
	var buf bytes.Buffer
	for _, t := range res.Tables {
		if err := t.Write(&buf, report.FormatCSV); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// studyJob runs one registry workload through core.RunSpec.Run — the
// path the CLI and the serve executors share — with engineWorkers
// workers, and renders the result. Traced, the job, its rendering and
// the gaps between Monte-Carlo progress callbacks (one per completed
// block) are recorded.
func studyJob(tr *tracer, spec core.RunSpec, enc render) (*exp.Result, []byte, float64, error) {
	op := tr.op()
	root := tr.begin("job."+spec.Workload, 0, op)
	defer tr.end(root)
	opts := []core.Option{core.WithWorkers(engineWorkers)}
	clock := &blockClock{tr: tr}
	if tr != nil {
		opts = append(opts, core.WithProgress(clock.tick))
	}
	t0 := time.Now()
	clock.last = t0
	res, err := spec.Run(opts...)
	if err != nil {
		return nil, nil, 0, err
	}
	sp := tr.begin("report.Encode", root.ID, op)
	body, err := enc(res)
	tr.end(sp)
	ms := msSince(t0)
	if tr != nil && clock.blocks > 0 {
		tr.observe("mc.blocks", float64(clock.blocks))
	}
	return res, body, ms, err
}

// blockClock turns the engine's serialized progress callbacks into block
// durations: the gap since the previous callback (or the job start).
type blockClock struct {
	tr     *tracer
	last   time.Time
	blocks int
}

func (c *blockClock) tick(done, total int) {
	now := time.Now()
	c.tr.observe("mc.block_ms", float64(now.Sub(c.last))/1e6)
	c.last = now
	c.blocks++
}

// ---------------------------------------------------------------- analytic-mc

type analyticMC struct {
	e      *env
	replay *analyticReplayer
}

func openAnalyticMC(e *env) (session, error) {
	env, err := defaultEnv()
	if err != nil {
		return nil, err
	}
	r, err := newAnalyticReplayer(env)
	if err != nil {
		return nil, err
	}
	// Warm-up: a small Fig. 5 job.
	spec := core.RunSpec{Workload: "fig5", Seed: jobSeed(e.seed, 999), Samples: 2000}
	if _, _, _, err := studyJob(nil, spec, jsonTables); err != nil {
		return nil, err
	}
	return &analyticMC{e: e, replay: r}, nil
}

func (s *analyticMC) measure(w *window, deadline time.Time) error {
	for j := 0; j == 0 || time.Now().Before(deadline); j++ {
		spec := core.RunSpec{Workload: "fig5", Seed: jobSeed(s.e.seed, j), Samples: analyticSamples}
		w.attempted++
		res, body, ms, err := studyJob(s.e.tr, spec, jsonTables)
		if err == nil && spec.Seed == pinSeed {
			err = checkPin(s.e.pins, "analytic-mc", body)
		}
		var rejected int
		if err == nil {
			rejected, err = checkFig5(res.Data.([]exp.Fig5Result), analyticSamples)
		}
		if err != nil {
			w.failed++
			return fmt.Errorf("analytic-mc job %d (seed %d): %w", j, spec.Seed, err)
		}
		drawn := len(litho.Options) * analyticSamples
		w.ops += float64(drawn)
		w.jobs = append(w.jobs, ms)
		w.drawn += drawn
		w.rejected += rejected
		s.e.tr.observe("mc.rejected", float64(rejected))
		s.e.tr.observe("mc.drawn", float64(drawn))
		if s.e.tr != nil {
			w.ops += float64(s.replay.trials(s.e.tr, spec.Seed, analyticReplay))
		}
	}
	return nil
}

func (s *analyticMC) verify() error { return nil }
func (s *analyticMC) close()        {}

// analyticReplayer replays Fig. 5 trials through the public calls of the
// analytic trial function — litho.Draw, extract.VarRatios and the tdp
// formula — on the engine's per-trial stream.
type analyticReplayer struct {
	env   exp.Env
	model analytic.Params
	rng   *rand.Rand
}

func newAnalyticReplayer(env exp.Env) (*analyticReplayer, error) {
	m, err := env.Model()
	if err != nil {
		return nil, err
	}
	return &analyticReplayer{env: env, model: m, rng: rand.New(rand.NewSource(0))}, nil
}

// fig5Proc is the process a Fig. 5 stream of option o draws from: LE3
// runs at the overlay budget under study, here the process's own.
func fig5Proc(p tech.Process, o litho.Option) tech.Process {
	if o == litho.LE3 {
		return p.WithOL(p.Var.OL3Sigma)
	}
	return p
}

// trials replays the first n trials of every option's stream at seed
// and returns how many it ran. The formula is timed in one batch over
// the replayed draws: one evaluation is too short to time alone.
func (r *analyticReplayer) trials(tr *tracer, seed int64, n int) int {
	ratios := make([]extract.Ratios, 0, n)
	for _, o := range litho.Options {
		p := fig5Proc(r.env.Proc, o)
		params := litho.Params(p, o)
		ratios = ratios[:0]
		for i := 0; i < n; i++ {
			op := tr.op()
			root := tr.begin("trial.analytic", 0, op)
			r.rng.Seed(trialSeed(seed, i))
			sp := tr.begin("litho.Draw", root.ID, op)
			smp := litho.Draw(params, r.rng)
			tr.end(sp)
			sp = tr.begin("extract.VarRatios", root.ID, op)
			rt, err := extract.VarRatios(p, o, smp, r.env.Cap)
			tr.end(sp)
			tr.end(root)
			tr.observe("extract.fail", b2f(err != nil))
			if err == nil {
				ratios = append(ratios, rt)
			}
		}
		if len(ratios) == 0 {
			continue
		}
		t0 := time.Now()
		for _, rt := range ratios {
			evalSink += r.model.TdpPct(paperN, rt.Rvar, rt.Cvar)
		}
		tr.observe("analytic.tdp_ns", float64(time.Since(t0))/float64(len(ratios)))
	}
	return n * len(litho.Options)
}

// ---------------------------------------------------------------- probes

func probeAnalytic(e *env) error {
	env, err := defaultEnv()
	if err != nil {
		return err
	}
	r, err := newAnalyticReplayer(env)
	if err != nil {
		return err
	}
	r.trials(e.tr, e.seed, analyticReplay)
	return nil
}

// probeMC runs a small Fig. 5 job for the Monte-Carlo block timing and
// the rendering.
func probeMC(e *env) error {
	spec := core.RunSpec{Workload: "fig5", Seed: jobSeed(e.seed, 200), Samples: probeSamples}
	res, _, _, err := studyJob(e.tr, spec, jsonTables)
	if err != nil {
		return err
	}
	rejected, err := checkFig5(res.Data.([]exp.Fig5Result), probeSamples)
	if err != nil {
		return err
	}
	e.tr.observe("mc.rejected", float64(rejected))
	e.tr.observe("mc.drawn", float64(len(litho.Options)*probeSamples))
	return nil
}

// probeCore times the run key and a two-shard execution with its
// reduce, and checks the reduced rendering equals the direct one.
func probeCore(e *env) error {
	tr := e.tr
	spec := core.RunSpec{Workload: "fig5", Seed: jobSeed(e.seed, 300), Samples: probeSamples}
	op := tr.op()
	for i := 0; i < 200; i++ {
		k := spec
		k.Seed += int64(i)
		sp := tr.begin("core.Key", 0, op)
		_, err := k.Key()
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	dir := filepath.Join(e.scratch, "shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const count = 2
	paths := make([]string, count)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("part%d.shard", i))
		sp := tr.begin("core.RunShard", 0, op)
		err := core.RunShard(spec, mc.ShardSpec{Index: i, Count: count}, paths[i], core.ShardRunOptions{}, core.WithWorkers(1))
		tr.end(sp)
		if err != nil {
			return err
		}
		st, err := os.Stat(paths[i])
		if err != nil {
			return err
		}
		tr.observe("core.artifact_kb", float64(st.Size())/1024)
	}
	sp := tr.begin("core.Reduce", 0, op)
	res, err := core.Reduce(paths, core.WithWorkers(engineWorkers))
	tr.end(sp)
	if err != nil {
		return err
	}
	reduced, err := jsonTables(res)
	if err != nil {
		return err
	}
	_, direct, _, err := studyJob(nil, spec, jsonTables)
	if err != nil {
		return err
	}
	if !bytes.Equal(reduced, direct) {
		return fmt.Errorf("reduced fig5 rendering differs from the direct run")
	}
	return nil
}
