package mpsram

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"mpsram/internal/analytic"
	"mpsram/internal/circuit"
	"mpsram/internal/core"
	"mpsram/internal/device"
	"mpsram/internal/exp"
	"mpsram/internal/extract"
	"mpsram/internal/field"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/rctree"
	"mpsram/internal/sparse"
	"mpsram/internal/spice"
	"mpsram/internal/sram"
	"mpsram/internal/sweep"
	"mpsram/internal/tech"
)

// study is shared across benches (construction is cheap but the Monte-Carlo
// budget is trimmed so benches finish in sensible time; the CLI runs the
// full 10k-sample budget).
var (
	studyOnce sync.Once
	benchEnv  exp.Env
)

func env(b *testing.B) exp.Env {
	b.Helper()
	studyOnce.Do(func() {
		s, err := core.NewStudy(core.WithMC(mc.Config{Samples: 4000, Seed: 2015}))
		if err != nil {
			panic(err)
		}
		benchEnv = s.Env
	})
	return benchEnv
}

// ------------------------------------------------------------ paper tables

// BenchmarkTable1WorstCase regenerates Table I: the worst-case ΔCbl/ΔRbl
// corner per patterning option.
func BenchmarkTable1WorstCase(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatTable1(rows))
			for _, r := range rows {
				b.ReportMetric(r.CblPct, r.Option.String()+"_dCbl_%")
			}
		}
	}
}

// BenchmarkFig2Distortion regenerates Fig. 2: worst-case track geometry.
func BenchmarkFig2Distortion(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		entries, err := exp.Fig2(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatFig2(entries))
		}
	}
}

// BenchmarkFig3Floorplan regenerates Fig. 3: the array DOE floorplans.
func BenchmarkFig3Floorplan(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig3(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatFig3(rows))
		}
	}
}

// BenchmarkFig4WorstCaseTd regenerates Fig. 4: SPICE-level worst-case td
// and tdp versus array size for all options.
func BenchmarkFig4WorstCaseTd(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		pts, err := exp.Fig4(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatFig4(pts))
			for _, p := range pts {
				if p.N == 64 {
					b.ReportMetric(p.TdpPct, p.Option.String()+"_tdp64_%")
				}
			}
		}
	}
}

// BenchmarkTable2Tdnom regenerates Table II: formula vs simulation tdnom.
func BenchmarkTable2Tdnom(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table2(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatTable2(rows))
		}
	}
}

// BenchmarkTable3Tdp regenerates Table III: formula vs simulation tdp.
func BenchmarkTable3Tdp(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatTable3(rows))
		}
	}
}

// BenchmarkFig5MonteCarlo regenerates Fig. 5: the Monte-Carlo tdp
// distribution at 8 nm overlay, n = 64.
func BenchmarkFig5MonteCarlo(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig5(e, 8e-9, 64)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatFig5(res))
		}
	}
}

// BenchmarkTable4Sigmas regenerates Table IV: tdp σ per option/overlay.
func BenchmarkTable4Sigmas(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table4(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatTable4(rows))
			for _, r := range rows {
				name := r.Option.String()
				if r.Option == litho.LE3 {
					name += "_" + itoa(int(r.OL*1e9)) + "nm"
				}
				b.ReportMetric(r.Sigma, name+"_sigma_pp")
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// ------------------------------------------------------------- ablations

// BenchmarkAblationCapModels compares the two closed-form capacitance
// models on the worst-case search (DESIGN.md §5).
func BenchmarkAblationCapModels(b *testing.B) {
	p := tech.N10()
	for _, cm := range []extract.CapModel{extract.SakuraiTamaru{}, extract.PlateFringe{}} {
		b.Run(cm.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wc, err := extract.WorstCase(p, litho.LE3, cm)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(wc.CvarPct(), "le3_dCbl_%")
				}
			}
		})
	}
}

// BenchmarkAblationIntegrator compares trapezoidal and backward-Euler read
// simulations at n=64.
func BenchmarkAblationIntegrator(b *testing.B) {
	e := env(b)
	nom, err := sram.NominalParasitics(e.Proc, e.Cap)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []spice.Integrator{spice.Trapezoidal, spice.BackwardEuler} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col, err := sram.BuildColumn(e.Proc, 64, nom, sram.BuildOptions{})
				if err != nil {
					b.Fatal(err)
				}
				rr, err := col.MeasureTd(nom, sram.SimOptions{Method: m})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rr.Td*1e12, "td_ps")
				}
			}
		})
	}
}

// BenchmarkAblationDiscretization compares lumped vs distributed bit-line
// models and the Elmore analytical refinement.
func BenchmarkAblationDiscretization(b *testing.B) {
	e := env(b)
	nom, err := sram.NominalParasitics(e.Proc, e.Cap)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opt  sram.BuildOptions
	}{
		{"lumped", sram.BuildOptions{Lumped: true}},
		{"seg8", sram.BuildOptions{Segments: 8}},
		{"seg64", sram.BuildOptions{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col, err := sram.BuildColumn(e.Proc, 256, nom, cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				rr, err := col.MeasureTd(nom, sram.SimOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rr.Td*1e12, "td_ps")
				}
			}
		})
	}
	b.Run("elmore-analytic", func(b *testing.B) {
		m, err := analytic.Derive(e.Proc, nom.Rbl, nom.Cbl)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			td := m.TdElmore(256, 1, 1)
			if i == 0 {
				b.ReportMetric(td*1e12, "td_ps")
			}
		}
	})
}

// BenchmarkAblationMCConvergence sweeps the Monte-Carlo budget to show σ
// estimate convergence.
func BenchmarkAblationMCConvergence(b *testing.B) {
	e := env(b)
	m, err := e.Model()
	if err != nil {
		b.Fatal(err)
	}
	for _, samples := range []int{250, 1000, 4000} {
		b.Run(itoa(samples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mc.TdpDistribution(e.Proc, litho.LE3, m, e.Cap, 64,
					mc.Config{Samples: samples, Seed: 9})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Summary.Std, "sigma_pp")
				}
			}
		})
	}
}

// BenchmarkTable4SurfaceSharedVsPerCell is the engine-redesign headline:
// the extended Table IV needs tdp σ at every DOE size. "percell" resamples
// one stream per (option, size) cell — the seed engine's access pattern —
// while "shared" evaluates all four sizes from each draw of a single
// stream, cutting the litho+extract work 4× and the allocations with it.
func BenchmarkTable4SurfaceSharedVsPerCell(b *testing.B) {
	e := env(b)
	m, err := e.Model()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cfg := mc.Config{Samples: 1000, Seed: 2015}
	b.Run("percell", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, n := range exp.PaperSizes {
				if _, err := mc.TdpAcrossSizes(ctx, e.Proc, litho.LE3, m, e.Cap, []int{n}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mc.TdpAcrossSizes(ctx, e.Proc, litho.LE3, m, e.Cap, exp.PaperSizes, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpiceSweepSharedVsSerial is this refactor's headline: the
// combined Fig. 4 + Table II + Table III reproduction. "serial" replays
// the pre-sweep-engine access pattern — three independent loops of
// one-shot sram calls issuing 13 transients per DOE size (Fig. 4 re-runs
// the nominal per option, Table II re-runs it again, Table III repeats
// every Fig. 4 penalty) — while "shared" issues one deduplicated plan of
// 4 unique transients per size through the sweep engine's worker pool and
// reads all three tables from the memoized results.
func BenchmarkSpiceSweepSharedVsSerial(b *testing.B) {
	e := env(b)
	serialPenalties := func(b *testing.B) {
		for _, o := range litho.Options {
			wc, err := extract.WorstCase(e.Proc, o, e.Cap)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range exp.PaperSizes {
				if _, _, _, err := sram.TdPenaltyPct(e.Proc, o, wc.Sample, e.Cap, n, e.Build, e.Sim); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serialPenalties(b)                 // Fig. 4
			for _, n := range exp.PaperSizes { // Table II
				if _, err := sram.SimulateTd(e.Proc, litho.EUV, litho.Nominal, e.Cap, n, e.Build, e.Sim); err != nil {
					b.Fatal(err)
				}
			}
			serialPenalties(b) // Table III
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exp.SpiceTables(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCrossProcessPlanSharedVsSerial is the process-axis headline:
// the Fig. 4-style sweep (nominal + per-option worst case per size)
// across all three registry nodes. "serial" runs one single-process sweep
// per node back to back — each paying its own pool spin-up and drain
// tail — while "shared" issues one cross-process plan whose nominal
// transients dedupe per (process, n) across options and whose job set
// interleaves the nodes over a single worker pool. Results are gated
// bit-identical to the serial arm across worker counts in
// sweep.TestCrossProcessSharedMatchesSerialPerProcess.
func BenchmarkCrossProcessPlanSharedVsSerial(b *testing.B) {
	e := env(b)
	reg := tech.Default()
	sizes := []int{16, 64}
	procs := map[string]tech.Process{}
	for _, p := range reg.Processes() {
		procs[p.Name] = p
	}
	ctx := context.Background()
	cfg := sweep.Config{Workers: 2}
	b.Run("serial-per-process", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			jobs := 0
			for _, name := range reg.Names() {
				pl := sweep.NewPlan()
				pl.AddNominal(sizes...)
				for _, o := range litho.Options {
					pl.AddWorstCase(o, sizes...)
				}
				senv := sweep.Env{Proc: procs[name], Cap: e.Cap, Build: e.Build, Sim: e.Sim}
				res, err := sweep.Run(ctx, senv, pl, cfg)
				if err != nil {
					b.Fatal(err)
				}
				jobs += res.Jobs()
			}
			if i == 0 {
				b.ReportMetric(float64(jobs), "transients")
			}
		}
	})
	b.Run("shared-cross-process", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Every option (and, via AddNominal's per-table duplicates,
			// every consumer) declares its own nominal needs; the plan
			// coalesces them to one nominal transient per (process, n).
			pl := sweep.NewPlan()
			for _, name := range reg.Names() {
				for _, o := range litho.Options {
					pl.AddNominalFor(name, sizes...)
					pl.AddWorstCaseFor(name, o, sizes...)
				}
			}
			senv := sweep.Env{Proc: procs["N10"], Procs: procs, Cap: e.Cap, Build: e.Build, Sim: e.Sim}
			res, err := sweep.Run(ctx, senv, pl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.Jobs()), "transients")
			}
		}
	})
}

// BenchmarkMCEngineOverhead isolates the sampling scaffold from the
// physics: a trivial observable through the full engine, streaming versus
// value-collecting. Allocations stay O(workers + blocks), not O(samples).
func BenchmarkMCEngineOverhead(b *testing.B) {
	ctx := context.Background()
	f := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}
	for _, cfg := range []struct {
		name string
		c    mc.Config
	}{
		{"streaming", mc.Config{Samples: 10000, Seed: 1}},
		{"collect", mc.Config{Samples: 10000, Seed: 1, Collect: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mc.RunVector(ctx, cfg.c, 1, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------- micro-benches

// BenchmarkExtraction measures one realize+extract round trip.
func BenchmarkExtraction(b *testing.B) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	s := litho.Sample{CDA: 1e-9, OLB: 2e-9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := extract.VarRatios(p, litho.LE3, s, cm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFieldSolver measures the 2-D Laplace reference at 1 nm grid.
func BenchmarkFieldSolver(b *testing.B) {
	p := tech.N10()
	win, err := litho.Realize(p, litho.EUV, litho.Nominal)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := field.VictimCaps(p, win, 1e-9, 20000, 1e-7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseLadderSolve measures the sparse kernel on a 2048-node
// tridiagonal system (the bit-line ladder pattern).
func BenchmarkSparseLadderSolve(b *testing.B) {
	n := 2048
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := sparse.NewMatrix(n)
		rhs := make([]float64, n)
		for k := 0; k < n; k++ {
			m.Add(k, k, 2)
			if k > 0 {
				m.Add(k, k-1, -1)
			}
			if k < n-1 {
				m.Add(k, k+1, -1)
			}
			rhs[k] = 1
		}
		if _, err := m.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceEval measures the MOSFET model evaluation.
func BenchmarkDeviceEval(b *testing.B) {
	nm := device.NewNMOS(tech.N10().FEOL)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		id, _, _ := nm.Eval(20e-9, 0.6, 0.3)
		sink += id
	}
	_ = sink
}

// BenchmarkReadTransient measures one full n=64 read simulation.
func BenchmarkReadTransient(b *testing.B) {
	e := env(b)
	nom, err := sram.NominalParasitics(e.Proc, e.Cap)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		col, err := sram.BuildColumn(e.Proc, 64, nom, sram.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := col.MeasureTd(nom, sram.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCThroughput measures Monte-Carlo trials per second through the
// full litho→extract→formula pipeline.
func BenchmarkMCThroughput(b *testing.B) {
	e := env(b)
	m, err := e.Model()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, ok := mc.SampleRatios(e.Proc, litho.LE3, e.Cap, rng)
		if !ok {
			continue
		}
		m.TdpPct(64, r.Rvar, r.Cvar)
	}
}

// BenchmarkNetlistBuild measures column construction at the largest DOE
// size.
func BenchmarkNetlistBuild(b *testing.B) {
	e := env(b)
	nom, err := sram.NominalParasitics(e.Proc, e.Cap)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col, err := sram.BuildColumn(e.Proc, 1024, nom, sram.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := col.Netlist.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDCOperatingPoint measures the Newton/gmin DC solve of the
// column.
func BenchmarkDCOperatingPoint(b *testing.B) {
	e := env(b)
	nom, err := sram.NominalParasitics(e.Proc, e.Cap)
	if err != nil {
		b.Fatal(err)
	}
	col, err := sram.BuildColumn(e.Proc, 64, nom, sram.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eng, err := spice.New(col.Netlist, spice.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eng.SetNodeset(map[circuit.NodeID]float64{col.Q: 0, col.QB: 0.7})
		if _, err := eng.DCOperatingPoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionLE2 runs the four-option extension corner study
// (DESIGN.md §5: LE2 sits between EUV and LE3).
func BenchmarkExtensionLE2(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.ExtTable1(e, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatExtTable1(rows, 0))
		}
	}
}

// BenchmarkExtensionWritePenalty measures the write-path variability
// extension at n=64.
func BenchmarkExtensionWritePenalty(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.WritePenalty(e, 64)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", exp.FormatWritePenalty(rows))
		}
	}
}

// BenchmarkElmoreLadder measures the RC-tree Elmore sweep at the largest
// DOE bit line.
func BenchmarkElmoreLadder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, end, err := rctree.BuildLadder(7e3, 0.4e-15, 1024, 6.2, 40e-18, 6e-15)
		if err != nil {
			b.Fatal(err)
		}
		tau := tr.ElmoreDelays()
		_ = tau[end]
	}
}

// BenchmarkSNM measures the butterfly static-noise-margin analysis.
func BenchmarkSNM(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := sram.StaticNoiseMargins(e.Proc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Hold*1e3, "hold_mV")
			b.ReportMetric(res.Read*1e3, "read_mV")
		}
	}
}

// BenchmarkAblationAdaptiveStep compares the fixed-step and adaptive read
// simulations at n=256.
func BenchmarkAblationAdaptiveStep(b *testing.B) {
	e := env(b)
	nom, err := sram.NominalParasitics(e.Proc, e.Cap)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opt  sram.SimOptions
	}{
		{"fixed", sram.SimOptions{}},
		{"adaptive", sram.SimOptions{Adaptive: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col, err := sram.BuildColumn(e.Proc, 256, nom, sram.BuildOptions{})
				if err != nil {
					b.Fatal(err)
				}
				rr, err := col.MeasureTd(nom, cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rr.Td*1e12, "td_ps")
				}
			}
		})
	}
}

// BenchmarkSpiceMC prices the SPICE-in-the-loop Monte-Carlo trial loop
// and isolates what engine residency buys: both arms draw the same
// lithography samples, extract the same perturbed parasitics and simulate
// the same read transients on one reused ColumnBuilder netlist — but the
// baseline constructs a fresh spice.New engine per trial (the pre-Reset
// access pattern) while the resident arm re-targets one engine with
// spice.Engine.Reset. The allocs/op gap is the engine construction cost
// the Reset path removes from every trial of every worker.
func BenchmarkSpiceMC(b *testing.B) {
	e := env(b)
	const (
		size   = 16
		trials = 16
	)
	p, cm, o := e.Proc, e.Cap, litho.EUV
	seedBuilder := sram.NewColumnBuilder(p, cm)
	nom, err := seedBuilder.Nominal()
	if err != nil {
		b.Fatal(err)
	}
	nomTd, err := seedBuilder.NominalTds([]int{size}, e.Build, e.Sim)
	if err != nil {
		b.Fatal(err)
	}
	params := litho.Params(p, o)
	run := func(b *testing.B, measure func(builder *sram.ColumnBuilder, cp sram.CellParasitics) (float64, error)) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			builder := sram.NewColumnBuilder(p, cm)
			builder.SetNominal(nom)
			rng := rand.New(rand.NewSource(0))
			for tr := 0; tr < trials; tr++ {
				rng.Seed(2015 + int64(tr))
				s := litho.Draw(params, rng)
				r, err := extract.VarRatios(p, o, s, cm)
				if err != nil {
					b.Fatal(err)
				}
				td, err := measure(builder, nom.Scale(r))
				if err != nil {
					b.Fatal(err)
				}
				if tdp := (td/nomTd[0] - 1) * 100; tdp < -100 || tdp > 1000 {
					b.Fatalf("implausible tdp %g", tdp)
				}
			}
		}
	}
	b.Run("new-engine-per-trial", func(b *testing.B) {
		run(b, func(builder *sram.ColumnBuilder, cp sram.CellParasitics) (float64, error) {
			col, err := builder.Build(size, cp, e.Build)
			if err != nil {
				return 0, err
			}
			res, err := col.MeasureTd(cp, e.Sim)
			if err != nil {
				return 0, err
			}
			return res.Td, nil
		})
	})
	b.Run("reset-resident-engine", func(b *testing.B) {
		run(b, func(builder *sram.ColumnBuilder, cp sram.CellParasitics) (float64, error) {
			return builder.MeasureTd(size, cp, e.Build, e.Sim)
		})
	})
}

// BenchmarkSpiceMCCV prices the control-variate estimator against the
// plain SPICE-MC estimator: both arms run the same paired draw budget of
// full read transients, but the cv arm also evaluates the closed-form
// formula on each trial's extracted ratios and reports the measured
// variance-reduction factor and the effective (plain-estimator) draw
// count the paired stream is worth. σ-per-CPU-second is eff_draws/op
// divided by ns/op: at ρ ≈ 0.99 the paired stream buys ~50–100× the
// plain estimator's statistical power for ~1× the transient cost, which
// is the whole economic case for the estimator (see EXPERIMENTS.md).
func BenchmarkSpiceMCCV(b *testing.B) {
	e := env(b)
	const size = 16
	cfg := e.MC
	cfg.Samples = 8
	p, cm, o := e.Proc, e.Cap, litho.EUV
	m, err := e.Model()
	if err != nil {
		b.Fatal(err)
	}
	seedBuilder := sram.NewColumnBuilder(p, cm)
	nom, err := seedBuilder.Nominal()
	if err != nil {
		b.Fatal(err)
	}
	nomTd, err := seedBuilder.NominalTds([]int{size}, e.Build, e.Sim)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vr, err := mc.SpiceTdpAcrossSizesShared(ctx, p, o, cm, []int{size}, nom, nomTd, e.Build, e.Sim, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(vr.Stats[0].N()), "eff_draws")
			}
		}
	})
	b.Run("cv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cvr, err := mc.SpiceTdpCVAcrossSizesShared(ctx, p, o, m, cm, []int{size}, nom, nomTd, e.Build, e.Sim, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				s := cvr.CVSummary(0, 0, 1)
				b.ReportMetric(s.VarReduction, "vr_factor")
				b.ReportMetric(s.EffectiveN, "eff_draws")
			}
		}
	})
	b.Run("cv-adaptive", func(b *testing.B) {
		sopt := e.Sim
		sopt.Adaptive = true
		adTd, err := seedBuilder.NominalTds([]int{size}, e.Build, sopt)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			cvr, err := mc.SpiceTdpCVAcrossSizesShared(ctx, p, o, m, cm, []int{size}, nom, adTd, e.Build, sopt, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				s := cvr.CVSummary(0, 0, 1)
				b.ReportMetric(s.VarReduction, "vr_factor")
				b.ReportMetric(s.EffectiveN, "eff_draws")
			}
		}
	})
}
