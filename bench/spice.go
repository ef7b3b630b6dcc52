package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mpsram/internal/circuit"
	"mpsram/internal/core"
	"mpsram/internal/device"
	"mpsram/internal/exp"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/report"
	"mpsram/internal/sparse"
	"mpsram/internal/spice"
	"mpsram/internal/sram"
	"mpsram/internal/sweep"
	"mpsram/internal/tech"
)

const (
	// paperN is the paper's array size, n = 64 word lines, at which the
	// SPICE-MC and Fig. 5 jobs run.
	paperN = 64
	// spiceMCSamples is the draw budget per option of one spicemc job.
	// Any budget up to the engine's 256-trial block is a single block
	// per option, so a job runs its three streams on one core each in
	// turn; eight draws keep a job near 2 s, short enough for several
	// jobs per window.
	spiceMCSamples = 8
	// fidelityEvery is the replayed-trial period of the fidelity gate
	// and of the separate DC operating-point measurement.
	fidelityEvery = 10
	// sparseReps is the solve count per array size of the sparse probe.
	sparseReps = 2000
)

// defaultEnv is the experiment environment every registry workload
// starts from; the replays take their inputs from it.
func defaultEnv() (exp.Env, error) {
	st, err := core.NewStudy()
	if err != nil {
		return exp.Env{}, err
	}
	return st.Env, nil
}

// ---------------------------------------------------------------- spicemc

type spiceMC struct {
	e      *env
	replay *spiceReplay
}

func openSpiceMC(e *env) (session, error) {
	env, err := defaultEnv()
	if err != nil {
		return nil, err
	}
	// Extraction plus one nominal transient: the warm-up every job's
	// nominal denominator repeats, and the replay's tdp reference.
	r, err := newSpiceReplay(env)
	if err != nil {
		return nil, err
	}
	return &spiceMC{e: e, replay: r}, nil
}

func (s *spiceMC) measure(w *window, deadline time.Time) error {
	if s.e.tr == nil {
		for j := 0; j == 0 || time.Now().Before(deadline); j++ {
			if err := s.job(w, j); err != nil {
				return err
			}
		}
		return nil
	}
	// Traced: one job through the registry for the Monte-Carlo block
	// timing, then the same trials replayed call by call until the
	// deadline.
	if err := s.job(w, 0); err != nil {
		return err
	}
	for j := 0; ; j++ {
		for _, o := range litho.Options {
			for i := 0; i < spiceMCSamples; i++ {
				if !time.Now().Before(deadline) {
					return nil
				}
				n, err := s.replay.trial(s.e.tr, jobSeed(s.e.seed, j), o, i)
				w.ops += float64(n)
				if err != nil {
					return err
				}
			}
		}
	}
}

// job runs one mcspice job: spiceMCSamples draws per option at n = 64,
// plain estimator, through the registry.
func (s *spiceMC) job(w *window, j int) error {
	spec := core.RunSpec{Workload: "mcspice", Params: exp.Params{"n": paperN}, Seed: jobSeed(s.e.seed, j), Samples: spiceMCSamples}
	w.attempted++
	res, body, ms, err := studyJob(s.e.tr, spec, jsonTables)
	if err == nil && spec.Seed == pinSeed {
		err = checkPin(s.e.pins, "spicemc", body)
	}
	var rejected int
	if err == nil {
		rejected, err = checkSpiceMC(res.Data.([]exp.SpiceMCRow), spiceMCSamples)
	}
	if err != nil {
		w.failed++
		return fmt.Errorf("spicemc job %d (seed %d): %w", j, spec.Seed, err)
	}
	drawn := len(litho.Options) * spiceMCSamples
	w.ops += float64(1 + drawn) // the nominal read plus one per draw
	w.jobs = append(w.jobs, ms)
	w.drawn += drawn
	w.rejected += rejected
	s.e.tr.observe("mc.rejected", float64(rejected))
	s.e.tr.observe("mc.drawn", float64(drawn))
	return nil
}

func (s *spiceMC) verify() error { return nil }
func (s *spiceMC) close()        {}

// ---------------------------------------------------------------- spicesweep

type spiceSweep struct {
	e       *env
	env     exp.Env
	goldens [][]byte
}

// spiceTablesTransients is the transients of one spicetables run: its
// deduplicated sweep plan holds the nominal read at every DOE size and
// every option's worst case at every size.
var spiceTablesTransients = len(exp.PaperSizes) * (1 + len(litho.Options))

func openSpiceSweep(e *env) (session, error) {
	goldens, err := readGoldens(e.root)
	if err != nil {
		return nil, err
	}
	env, err := defaultEnv()
	if err != nil {
		return nil, err
	}
	s := &spiceSweep{e: e, env: env, goldens: goldens}
	// Warm-up: one full repetition, checked like every timed one.
	if err := s.rep(&window{}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *spiceSweep) measure(w *window, deadline time.Time) error {
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := s.rep(w); err != nil {
			return err
		}
	}
	return nil
}

// rep runs spicetables once on a fresh environment and checks all three
// tables against the goldens. Traced, it calls the workload's two steps
// itself, so the sweep and the rendering are timed apart.
func (s *spiceSweep) rep(w *window) error {
	w.attempted++
	var (
		tables []*report.Table
		ms     float64
		err    error
	)
	if s.e.tr == nil {
		var res *exp.Result
		spec := core.RunSpec{Workload: "spicetables"}
		res, _, ms, err = studyJob(nil, spec, csvTables)
		if err == nil {
			tables = res.Tables
		}
	} else {
		tables, ms, err = s.tracedRep()
	}
	if err == nil {
		err = checkGoldens(tables, s.goldens)
	}
	if err != nil {
		w.failed++
		return fmt.Errorf("spicetables: %w", err)
	}
	w.ops += float64(spiceTablesTransients)
	w.jobs = append(w.jobs, ms)
	return nil
}

// tracedRep is spicetables through its public steps: exp.SpiceTables,
// which runs the sweep and assembles the rows, then the three tables
// rendered from the rows as the registry workload renders them.
func (s *spiceSweep) tracedRep() ([]*report.Table, float64, error) {
	tr := s.e.tr
	op := tr.op()
	root := tr.begin("job.spicetables", 0, op)
	defer tr.end(root)
	t0 := time.Now()
	res, err := tracedSpiceTables(tr, s.env, root.ID, op)
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin("report.Encode", root.ID, op)
	tables := []*report.Table{exp.Fig4Report(res.Fig4), exp.Table2Report(res.Table2), exp.Table3Report(res.Table3)}
	_, err = csvTables(&exp.Result{Tables: tables})
	tr.end(sp)
	return tables, msSince(t0), err
}

// tracedSpiceTables runs exp.SpiceTables on engineWorkers sweep workers
// as one sweep.Run span (assembling the rows from the sweep result is
// negligible beside 16 transients) and records the sweep's job count.
func tracedSpiceTables(tr *tracer, env exp.Env, parent, op int64) (*exp.SpiceResults, error) {
	env.Sweep = sweep.Config{Workers: engineWorkers, Progress: func(done, total int) {
		if done == total {
			tr.observe("sweep.jobs", float64(total))
		}
	}}
	sp := tr.begin("sweep.Run", parent, op)
	res, err := exp.SpiceTables(env)
	tr.end(sp)
	return res, err
}

func (s *spiceSweep) verify() error { return nil }
func (s *spiceSweep) close()        {}

// ---------------------------------------------------------------- replay

// spiceReplay replays SPICE-MC trials through the public calls the
// Monte-Carlo trial function makes — litho.Draw, extract.VarRatios,
// ColumnBuilder.Build, Engine.Reset, Engine.Transient, FirstCrossing —
// so each layer is timed on its own. The draws reproduce the engine's
// stream for (seed, trial) and the read window is computed from the
// same public inputs sram uses; the fidelity gate proves the replay is
// the same program by comparing its td with ColumnBuilder.MeasureTd bit
// for bit.
type spiceReplay struct {
	env    exp.Env
	nmos   *device.MOS
	b      *sram.ColumnBuilder // replay session: netlist scratch
	ref    *sram.ColumnBuilder // fidelity reference, with its own engine
	eng    *spice.Engine
	rng    *rand.Rand
	trials int
}

func newSpiceReplay(env exp.Env) (*spiceReplay, error) {
	if env.Sim.Adaptive {
		return nil, fmt.Errorf("spice replay: the adaptive integrator is not replayed")
	}
	r := &spiceReplay{
		env:  env,
		nmos: device.NewNMOS(env.Proc.FEOL),
		b:    sram.NewColumnBuilder(env.Proc, env.Cap),
		ref:  sram.NewColumnBuilder(env.Proc, env.Cap),
		rng:  rand.New(rand.NewSource(0)),
	}
	if _, err := r.b.NominalTds([]int{paperN}, env.Build, env.Sim); err != nil {
		return nil, err
	}
	return r, nil
}

// trialSeed mirrors the Monte-Carlo engine's per-trial seed derivation,
// a compatibility surface of the mc package: trial i of a stream seeded
// seed draws from a PRNG seeded with this value.
func trialSeed(seed int64, i int) int64 {
	return seed ^ int64(uint64(i+1)*0x9E3779B97F4A7C15)
}

// trial replays trial i of option o's stream at seed and returns the
// transients it ran. A rejected draw (collapsed geometry, failed
// transient) is counted, as the engine counts it, not returned as an
// error; only a fidelity mismatch is.
func (r *spiceReplay) trial(tr *tracer, seed int64, o litho.Option, i int) (int, error) {
	env := r.env
	params := litho.Params(env.Proc, o) // built once per stream by the trial function
	op := tr.op()
	root := tr.begin("trial.spice", 0, op)
	defer tr.end(root)
	r.rng.Seed(trialSeed(seed, i))

	sp := tr.begin("litho.Draw", root.ID, op)
	smp := litho.Draw(params, r.rng)
	tr.end(sp)
	sp = tr.begin("extract.VarRatios", root.ID, op)
	ratios, err := extract.VarRatios(env.Proc, o, smp, env.Cap)
	tr.end(sp)
	tr.observe("extract.fail", b2f(err != nil))
	if err != nil {
		return 0, nil
	}
	nom, err := r.b.Nominal()
	if err != nil {
		return 0, err
	}
	cp := nom.Scale(ratios)

	sp = tr.begin("sram.Build", root.ID, op)
	col, err := r.b.Build(paperN, cp, env.Build)
	tr.end(sp)
	if err != nil {
		return 0, nil
	}
	sp = tr.begin("spice.Reset", root.ID, op)
	opts := spice.Options{Method: env.Sim.Method}
	if r.eng == nil {
		r.eng, err = spice.New(col.Netlist, opts)
	} else {
		err = r.eng.Reset(col.Netlist, opts)
	}
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	f := env.Proc.FEOL
	r.eng.SetNodeset(map[circuit.NodeID]float64{col.Q: 0, col.QB: f.Vdd})
	tEnd, dt := readWindow(env.Proc, r.nmos, paperN, cp, env.Sim)
	gate := r.trials%fidelityEvery == 0
	r.trials++
	if gate {
		sp = tr.begin("spice.DCOperatingPoint", root.ID, op)
		_, err := r.eng.DCOperatingPoint()
		tr.end(sp)
		if err != nil {
			tr.observe("spice.fail", 1)
			return 0, nil
		}
	}

	probes := []circuit.NodeID{col.BLSense, col.BLBSense, col.BLFar, col.Q, col.QB, col.WL}
	stop := func(t float64, v func(circuit.NodeID) float64) bool {
		return v(col.BLBSense)-v(col.BLSense) >= 1.5*f.SenseDeltaV
	}
	sp = tr.begin("spice.Transient", root.ID, op)
	res, err := r.eng.Transient(tEnd, dt, probes, stop)
	tr.end(sp)
	if err != nil {
		tr.observe("spice.fail", 1)
		return 1, nil
	}
	tr.observe("spice.steps", float64(len(res.T)))
	sp = tr.begin("spice.FirstCrossing", root.ID, op)
	bl, blb := res.NodeWave(col.BLSense), res.NodeWave(col.BLBSense)
	tc, err := res.FirstCrossing(func(k int) float64 { return blb[k] - bl[k] }, f.SenseDeltaV, +1)
	tr.end(sp)
	tr.observe("spice.fail", b2f(err != nil))
	if err != nil {
		return 1, nil
	}
	td := tc - 1e-12 // referenced to the word-line enable at 1 ps
	if td < 0 {
		td = tc
	}
	if !gate {
		return 1, nil
	}
	want, err := r.ref.MeasureTd(paperN, cp, env.Build, env.Sim)
	if err != nil {
		return 2, fmt.Errorf("replay fidelity: reference MeasureTd: %w", err)
	}
	if math.Float64bits(want) != math.Float64bits(td) {
		return 2, fmt.Errorf("replay fidelity: %v trial %d at seed %d: replayed td %v != MeasureTd %v", o, i, seed, td, want)
	}
	return 2, nil
}

// readWindow is the read transient's window and step as sram sizes them
// from a first-order td estimate: line discharge by half the pass-gate
// drive plus the distributed wire delay.
func readWindow(p tech.Process, nmos *device.MOS, n int, cp sram.CellParasitics, sopt sram.SimOptions) (tEnd, dt float64) {
	f := p.FEOL
	nf := float64(n)
	ctot := nf*(cp.Cbl+sram.CFE(f)) + f.CPre(n)
	ieff := 0.5 * nmos.Idsat(f.WPassGate, f.Vdd)
	est := ctot*f.SenseDeltaV/ieff + nf*cp.Rbl*ctot/2
	if tEnd = sopt.TEnd; tEnd == 0 {
		tEnd = 6*est + 50e-12
	}
	if dt = sopt.Dt; dt == 0 {
		dt = min(tEnd/6000, 0.5e-12)
	}
	return tEnd, dt
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------- probes

// probeSpice replays a few SPICE-MC trials at n = 64, fidelity gate
// included.
func probeSpice(e *env) error {
	env, err := defaultEnv()
	if err != nil {
		return err
	}
	r, err := newSpiceReplay(env)
	if err != nil {
		return err
	}
	for i := 0; i < fidelityEvery; i++ {
		if _, err := r.trial(e.tr, e.seed, litho.Options[i%len(litho.Options)], i); err != nil {
			return err
		}
	}
	return nil
}

// probeSparse times the sparse kernel on the engine's own matrices: the
// nominal column at n = 16 and n = 64 is stamped the way the engine
// stamps a transient Newton iteration (static conductances, trapezoidal
// capacitor companions, MOSFETs linearized at the DC operating point),
// then copied and solved sparseReps times. It also times device.Eval in
// batches, a single call being too short to time alone.
func probeSparse(e *env) error {
	tr := e.tr
	env, err := defaultEnv()
	if err != nil {
		return err
	}
	b := sram.NewColumnBuilder(env.Proc, env.Cap)
	nom, err := b.Nominal()
	if err != nil {
		return err
	}
	nmos := device.NewNMOS(env.Proc.FEOL)
	for _, n := range []int{16, paperN} {
		col, err := b.Build(n, nom, env.Build)
		if err != nil {
			return err
		}
		eng, err := spice.New(col.Netlist, spice.Options{Method: env.Sim.Method})
		if err != nil {
			return err
		}
		eng.SetNodeset(map[circuit.NodeID]float64{col.Q: 0, col.QB: env.Proc.FEOL.Vdd})
		x, err := eng.DCOperatingPoint()
		if err != nil {
			return err
		}
		_, dt := readWindow(env.Proc, nmos, n, nom, env.Sim)
		base, rhs := newtonSystem(col.Netlist, x, dt, env.Sim.Method)
		copyName, solveName := "sparse.CopyFrom", "sparse.Solve"
		if n != paperN {
			copyName, solveName = "sparse.CopyFrom.n16", "sparse.Solve.n16"
		} else {
			tr.observe("sparse.unknowns", float64(base.N))
			tr.observe("sparse.nnz", float64(base.NNZ()))
		}
		var (
			work   sparse.Matrix
			solver sparse.Solver
			rhsW   = make([]float64, len(rhs))
		)
		for i := 0; i < sparseReps; i++ {
			op := tr.op()
			sp := tr.begin(copyName, 0, op)
			work.CopyFrom(base)
			tr.end(sp)
			copy(rhsW, rhs)
			sp = tr.begin(solveName, 0, op)
			_, err := solver.Solve(&work, rhsW)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		if n == paperN {
			timeDeviceEval(tr, col.Netlist, x)
		}
	}
	return nil
}

// newtonSystem stamps one transient Newton iteration of netlist nl
// around solution x with the engine's layout: node i is row i−1, gmin
// on every diagonal, resistors and voltage-source series conductances,
// capacitor companions for step dt, then each MOSFET's linearization.
func newtonSystem(nl *circuit.Netlist, x []float64, dt float64, method spice.Integrator) (*sparse.Matrix, []float64) {
	n := nl.NumNodes() - 1
	m := sparse.NewMatrix(n)
	rhs := make([]float64, n)
	ix := func(id circuit.NodeID) int { return int(id) - 1 }
	v := func(id circuit.NodeID) float64 {
		if id == circuit.Ground {
			return 0
		}
		return x[ix(id)]
	}
	add := func(r, c int, g float64) {
		if r >= 0 && c >= 0 {
			m.Add(r, c, g)
		}
	}
	stamp := func(a, b circuit.NodeID, g float64) {
		add(ix(a), ix(a), g)
		add(ix(b), ix(b), g)
		add(ix(a), ix(b), -g)
		add(ix(b), ix(a), -g)
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, 1e-12)
	}
	for _, r := range nl.Rs {
		stamp(r.A, r.B, 1/r.R)
	}
	for _, s := range nl.Vs {
		stamp(s.P, s.N, 1/s.RS)
		i := s.Wave.At(dt) / s.RS
		if p := ix(s.P); p >= 0 {
			rhs[p] += i
		}
		if q := ix(s.N); q >= 0 {
			rhs[q] -= i
		}
	}
	k := 1.0
	if method == spice.Trapezoidal {
		k = 2
	}
	for _, c := range nl.Cs {
		stamp(c.A, c.B, k*c.C/dt)
	}
	for _, t := range nl.Ms {
		vgs, vds := v(t.G)-v(t.S), v(t.D)-v(t.S)
		id, gm, gds := t.Model.Eval(t.W, vgs, vds)
		d, g, s := ix(t.D), ix(t.G), ix(t.S)
		add(d, g, gm)
		add(d, d, gds)
		add(d, s, -gm-gds)
		add(s, g, -gm)
		add(s, d, -gds)
		add(s, s, gm+gds)
		ieq := id - gm*vgs - gds*vds
		if d >= 0 {
			rhs[d] -= ieq
		}
		if s >= 0 {
			rhs[s] += ieq
		}
	}
	return m, rhs
}

// evalSink keeps the device evaluations observable to the compiler.
var evalSink float64

// timeDeviceEval times MOS.Eval over the netlist's transistors at
// solution x, in batches of 1000 calls.
func timeDeviceEval(tr *tracer, nl *circuit.Netlist, x []float64) {
	const batches, perBatch = 200, 1000
	v := func(id circuit.NodeID) float64 {
		if id == circuit.Ground {
			return 0
		}
		return x[int(id)-1]
	}
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			t := nl.Ms[i%len(nl.Ms)]
			id, gm, gds := t.Model.Eval(t.W, v(t.G)-v(t.S), v(t.D)-v(t.S))
			evalSink += id + gm + gds
		}
		tr.observe("device.eval_ns", float64(time.Since(t0))/perBatch)
	}
}

// probeSweep times the sweep layer and the one-off extractions it
// starts from: the nominal parasitics, every option's worst-case corner
// search, and one spicetables sweep.
func probeSweep(e *env) error {
	tr := e.tr
	env, err := defaultEnv()
	if err != nil {
		return err
	}
	op := tr.op()
	for i := 0; i < 3; i++ {
		sp := tr.begin("sram.NominalParasitics", 0, op)
		_, err := sram.NominalParasitics(env.Proc, env.Cap)
		tr.end(sp)
		if err != nil {
			return err
		}
		for _, o := range litho.Options {
			sp := tr.begin("extract.WorstCase", 0, op)
			_, err := extract.WorstCase(env.Proc, o, env.Cap)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	_, err = tracedSpiceTables(tr, env, 0, op)
	return err
}
