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
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/sparse"
	"mpsram/internal/spice"
	"mpsram/internal/sram"
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
				b.ReportMetric(r.Cells[0].Sigma, name+"_sigma_pp")
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
// models; analytic's BenchmarkTdElmore reports the Elmore refinement's
// td_ps at the same n.
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
}

// tdpStream runs option o's analytic trial at sizes on the engine, the
// stream behind Fig. 5 and Table IV.
func tdpStream(ctx context.Context, e exp.Env, o litho.Option, m analytic.Params, sizes []int, cfg mc.Config) (*mc.VectorResult, error) {
	trial, err := analytic.TdpTrial(e.Proc, o, m, e.Cap, sizes)
	if err != nil {
		return nil, err
	}
	return mc.RunVector(ctx, cfg, len(sizes), trial)
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
				res, err := tdpStream(context.Background(), e, litho.LE3, m, []int{64},
					mc.Config{Samples: samples, Seed: 9, Collect: true})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Summary(0).Std, "sigma_pp")
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
				if _, err := tdpStream(ctx, e, litho.LE3, m, []int{n}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tdpStream(ctx, e, litho.LE3, m, exp.PaperSizes, cfg); err != nil {
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
// every Fig. 4 penalty) — while "shared" issues one sweep of 4 transients
// per size through the sweep engine's worker pool and reads all three
// tables from its results.
func BenchmarkSpiceSweepSharedVsSerial(b *testing.B) {
	e := env(b)
	// oneShot is one pre-sweep-engine call: a fresh builder extracts the
	// nominal and reads it, then, for a corner sample, extracts the
	// corner's ratios and reads the perturbed column too.
	oneShot := func(b *testing.B, o litho.Option, s *litho.Sample, n int) {
		builder := sram.NewColumnBuilder(e.Proc, e.Cap)
		nom, err := builder.Nominal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := builder.MeasureTd(n, nom, e.Build, e.Sim); err != nil {
			b.Fatal(err)
		}
		if s == nil {
			return
		}
		r, err := extract.VarRatios(e.Proc, o, *s, e.Cap)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := builder.MeasureTd(n, nom.Scale(r), e.Build, e.Sim); err != nil {
			b.Fatal(err)
		}
	}
	serialPenalties := func(b *testing.B) {
		for _, o := range litho.Options {
			wc, err := extract.WorstCase(e.Proc, o, e.Cap)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range exp.PaperSizes {
				oneShot(b, o, &wc.Sample, n)
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serialPenalties(b)                 // Fig. 4
			for _, n := range exp.PaperSizes { // Table II
				oneShot(b, litho.EUV, nil, n)
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

// BenchmarkExtraction measures one LE3 ratio extraction: one-shot
// VarRatios (nominal and sampled windows) and a per-stream RatioModel's
// Ratios (the sampled window only, as the Monte-Carlo trials run it).
func BenchmarkExtraction(b *testing.B) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	s := litho.Sample{CDA: 1e-9, OLB: 2e-9}
	b.Run("VarRatios", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := extract.VarRatios(p, litho.LE3, s, cm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RatioModel", func(b *testing.B) {
		m, err := extract.NewRatioModel(p, litho.LE3, cm)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Ratios(s); err != nil {
				b.Fatal(err)
			}
		}
	})
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
	f, err := analytic.TdpTrial(e.Proc, litho.LE3, m, e.Cap, []int{64})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, 1)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f(rng, out)
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
// the same read transients on reused netlist storage — but the
// baseline constructs a fresh spice.New engine per trial (the pre-Reset
// access pattern) while the resident arm reads through
// ColumnBuilder.MeasureTd, which re-targets a pooled warm engine with
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

// spiceCVStream runs option o's SPICE trial at one size on the paired
// engine, with the formula m on the same extracted ratios as its control.
func spiceCVStream(ctx context.Context, builder *sram.ColumnBuilder, o litho.Option, m analytic.Params, size int, nomTd []float64, bopt sram.BuildOptions, sopt sram.SimOptions, cfg mc.Config) (*mc.CVVectorResult, error) {
	ctrl := func(n int, r extract.Ratios) float64 { return m.TdpPct(n, r.Rvar, r.Cvar) }
	trial, err := builder.TrialFunc(o, []int{size}, nomTd, ctrl, bopt, sopt)
	if err != nil {
		return nil, err
	}
	return mc.RunVectorPaired(ctx, cfg, 1, trial)
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
	o := litho.EUV
	m, err := e.Model()
	if err != nil {
		b.Fatal(err)
	}
	seedBuilder := sram.NewColumnBuilder(e.Proc, e.Cap)
	nomTd, err := seedBuilder.NominalTds([]int{size}, e.Build, e.Sim)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trial, err := seedBuilder.TrialFunc(o, []int{size}, nomTd, nil, e.Build, e.Sim)
			if err != nil {
				b.Fatal(err)
			}
			vr, err := mc.RunVector(ctx, cfg, 1, func(rng *rand.Rand, out []float64) bool {
				return trial(rng, out, nil)
			})
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
			cvr, err := spiceCVStream(ctx, seedBuilder, o, m, size, nomTd, e.Build, e.Sim, cfg)
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
			cvr, err := spiceCVStream(ctx, seedBuilder, o, m, size, adTd, e.Build, sopt, cfg)
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
