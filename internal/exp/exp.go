// Package exp contains one driver per table and figure of the paper's
// evaluation section. Each driver returns structured results plus a
// formatter that prints the same rows/series the paper reports, so the
// CLI, the examples and the benchmark harness all share one code path.
//
//	Table I  — worst-case variability per patterning option
//	Fig. 2   — worst-case layout distortion (track geometry)
//	Fig. 3   — array DOE overview
//	Fig. 4   — nominal td and worst-case tdp vs array size (SPICE)
//	Table II — formula vs simulation tdnom
//	Table III— formula vs simulation tdp at the worst cases
//	Fig. 5   — Monte-Carlo tdp distribution
//	Table IV — tdp σ per option and overlay budget
//
// Beyond the paper, the process axis adds the cross-node workloads of
// nodes.go: the Table-IV-style σ comparison across the technology
// registry (NodesAt) and per-process extended Table IV surfaces
// (Table4Surfaces).
package exp

import (
	"context"
	"fmt"
	"strings"
	"unicode/utf8"

	"mpsram/internal/analytic"
	"mpsram/internal/extract"
	"mpsram/internal/layout"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/sram"
	"mpsram/internal/stats"
	"mpsram/internal/sweep"
	"mpsram/internal/tech"
)

// PaperSizes is the array DOE of Fig. 3: word-line counts at 10 bit-line
// pairs.
var PaperSizes = []int{16, 64, 256, 1024}

// PaperColumns is the fixed bit-line pair count of the DOE.
const PaperColumns = 10

// PaperOLBudgets is the Table IV overlay sweep (3σ, metres).
var PaperOLBudgets = []float64{3e-9, 5e-9, 7e-9, 8e-9}

// Env bundles the shared experiment inputs.
type Env struct {
	// Proc is the primary process: every single-node experiment (the
	// paper's tables and figures) runs on it. The cross-process
	// experiments (NodesAt, Table4Surfaces, MCSpiceNodes) run on every
	// preset of the process registry instead.
	Proc tech.Process
	Cap  extract.CapModel
	// MC controls the Monte-Carlo experiments.
	MC mc.Config
	// Sweep controls the sharded SPICE sweep engine behind Fig. 4 and
	// Tables II–III (worker count, progress callback). Results are
	// bit-identical for any worker count.
	Sweep sweep.Config
	// Build/sim options for the SPICE experiments.
	Build sram.BuildOptions
	Sim   sram.SimOptions
	// Ctx, when non-nil, cancels the Monte-Carlo experiments mid-run
	// (e.g. on SIGINT from the CLI). Nil means context.Background().
	Ctx context.Context
}

// ctx returns the experiment context, defaulting to Background.
func (e Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// DefaultEnv returns the paper's configuration: the N10 preset as the
// primary process.
func DefaultEnv() Env {
	return Env{
		Proc: tech.N10(),
		Cap:  extract.SakuraiTamaru{},
		MC:   mc.Config{Samples: 10000, Seed: 2015},
	}
}

// Model derives the analytical formula parameters for the environment.
func (e Env) Model() (analytic.Params, error) {
	nom, err := sram.NominalParasitics(e.Proc, e.Cap)
	if err != nil {
		return analytic.Params{}, err
	}
	return analytic.Derive(e.Proc, nom.Rbl, nom.Cbl)
}

// ---------------------------------------------------------------- Table I

// Table1Row is one option's worst case.
type Table1Row struct {
	Option  litho.Option
	Corner  string
	CblPct  float64
	RblPct  float64
	RvssPct float64
}

// Table1 runs the worst-case corner search per option (paper Table I).
func Table1(e Env) ([]Table1Row, error) {
	var rows []Table1Row
	for _, o := range litho.Options {
		wc, err := extract.WorstCase(e.Proc, o, e.Cap)
		if err != nil {
			return nil, fmt.Errorf("table1 %v: %w", o, err)
		}
		rows = append(rows, Table1Row{
			Option:  o,
			Corner:  litho.CornerString(e.Proc, o, wc.Corner),
			CblPct:  wc.CvarPct(),
			RblPct:  wc.RvarPct(),
			RvssPct: (wc.Ratios.RvssVar - 1) * 100,
		})
	}
	return rows, nil
}

// FormatTable1 renders the rows paper-style.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: worst-case variability per patterning option\n")
	fmt.Fprintf(&b, "%-8s %-44s %10s %10s %10s\n", "option", "worst corner", "ΔCbl", "ΔRbl", "ΔRvss")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8v %-44s %+9.2f%% %+9.2f%% %+9.2f%%\n",
			r.Option, r.Corner, r.CblPct, r.RblPct, r.RvssPct)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 2

// Fig2Entry is one option's worst-case realized geometry.
type Fig2Entry struct {
	Option   litho.Option
	Describe string
	ASCII    string
	Window   litho.Window
}

// Fig2 reproduces the layout-distortion figure: the realized worst-case
// window per option.
func Fig2(e Env) ([]Fig2Entry, error) {
	var out []Fig2Entry
	for _, o := range litho.Options {
		wc, err := extract.WorstCase(e.Proc, o, e.Cap)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig2Entry{
			Option:   o,
			Describe: litho.Describe(wc.Window),
			ASCII:    layout.ASCIISection(wc.Window, 0.6),
			Window:   wc.Window,
		})
	}
	return out, nil
}

// FormatFig2 renders the entries.
func FormatFig2(entries []Fig2Entry) string {
	var b strings.Builder
	b.WriteString("Fig. 2: worst-case metal1 layout distortion (B = bit line)\n")
	for _, en := range entries {
		fmt.Fprintf(&b, "%-8v %s\n         |%s|\n", en.Option, en.Describe, en.ASCII)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 3

// Fig3Row is one DOE array.
type Fig3Row struct {
	N       int
	Columns int
	Summary string
}

// Fig3 builds the DOE floorplans (paper Fig. 3).
func Fig3(e Env) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, n := range PaperSizes {
		arr, err := layout.Array(e.Proc, n, PaperColumns)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3Row{N: n, Columns: PaperColumns, Summary: arr.Summary()})
	}
	return rows, nil
}

// FormatFig3 renders the DOE overview.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Fig. 3: SRAM array DOE (10 bit-line pairs, bl length ∝ word lines)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "10x%-5d %s\n", r.N, r.Summary)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 4

// Fig4Point is one (option, size) SPICE measurement.
type Fig4Point struct {
	Option litho.Option
	N      int
	TdNom  float64
	Td     float64
	TdpPct float64
}

// Fig4 reproduces the worst-case td/tdp figure by SPICE simulation of the
// column at every DOE size for every option. It is a view over the SPICE
// sweep: one nominal transient per size (shared across options) plus one
// worst-case transient per (option, size).
func Fig4(e Env) ([]Fig4Point, error) {
	res, err := e.runSweep(true)
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	return fig4Rows(res)
}

// FormatFig4 renders the series paper-style: nominal td per size plus the
// per-option penalties.
func FormatFig4(pts []Fig4Point) string {
	var b strings.Builder
	b.WriteString("Fig. 4: worst-case wire variability impact on td (SPICE)\n")
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %10s\n", "option", "array", "td_nom", "td_wc", "tdp")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8v 10x%-5d %10.2fps %10.2fps %+9.2f%%\n",
			p.Option, p.N, p.TdNom*1e12, p.Td*1e12, p.TdpPct)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table II

// Table2Row compares formula and simulation tdnom.
type Table2Row struct {
	N         int
	SimTd     float64
	FormulaTd float64
}

// Table2 reproduces the formula-vs-simulation tdnom comparison. The
// simulation column is the sweep engine's nominal transients — the same
// results Fig. 4's td_nom column and Table III's denominators read.
func Table2(e Env) ([]Table2Row, error) {
	res, err := e.runSweep(false)
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	m, err := e.sweepModel(res)
	if err != nil {
		return nil, err
	}
	return table2Rows(m, res)
}

// FormatTable2 renders the comparison.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II: formula versus simulation tdnom values\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %8s\n", "array", "simulation", "formula", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "10x%-7d %12.2fps %12.2fps %8.2f\n",
			r.N, r.SimTd*1e12, r.FormulaTd*1e12, r.SimTd/r.FormulaTd)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table III

// Table3Row compares formula and simulation tdp at one (option, n).
type Table3Row struct {
	Option     litho.Option
	N          int
	SimPct     float64
	FormulaPct float64
}

// Table3 reproduces the formula-vs-simulation tdp table at the worst-case
// corners. Its simulation column reads exactly the transients Fig. 4
// runs: issued together (see SpiceTables), every transient runs once and
// both tables read the same result.
func Table3(e Env) ([]Table3Row, error) {
	res, err := e.runSweep(true)
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	m, err := e.sweepModel(res)
	if err != nil {
		return nil, err
	}
	return table3Rows(m, res)
}

// ------------------------------------------------------- shared SPICE sweep

// SpiceResults bundles the three SPICE-driven reproductions computed from
// one shared sweep.
type SpiceResults struct {
	Fig4   []Fig4Point
	Table2 []Table2Row
	Table3 []Table3Row
}

// SpiceTables runs Fig. 4, Table II and Table III as views over a single
// sweep: one nominal transient per DOE size plus one worst-case transient
// per (option, size) — 16 transients instead of the 52 the three serial
// drivers used to issue.
func SpiceTables(e Env) (*SpiceResults, error) {
	res, err := e.runSweep(true)
	if err != nil {
		return nil, fmt.Errorf("spice tables: %w", err)
	}
	m, err := e.sweepModel(res)
	if err != nil {
		return nil, err
	}
	out := &SpiceResults{}
	if out.Fig4, err = fig4Rows(res); err != nil {
		return nil, err
	}
	if out.Table2, err = table2Rows(m, res); err != nil {
		return nil, err
	}
	if out.Table3, err = table3Rows(m, res); err != nil {
		return nil, err
	}
	return out, nil
}

// runSweep runs the SPICE sweep at every DOE size under the experiment
// environment: the nominal reads (Fig. 4's td_nom column, Table II's
// simulation column, Table III's penalty denominators) and, when
// worstCase is set, every option's worst-case reads.
func (e Env) runSweep(worstCase bool) (*sweep.Result, error) {
	return sweep.Run(e.ctx(), sweep.Env{
		Proc:  e.Proc,
		Cap:   e.Cap,
		Build: e.Build,
		Sim:   e.Sim,
	}, PaperSizes, worstCase, e.Sweep)
}

// sweepModel derives the formula parameters from the sweep's nominal
// parasitics: the values Model computes, without a second extraction.
func (e Env) sweepModel(res *sweep.Result) (analytic.Params, error) {
	nom := res.Nominal()
	return analytic.Derive(e.Proc, nom.Rbl, nom.Cbl)
}

// fig4Rows assembles the Fig. 4 series from a sweep result, in the
// paper's option-major order.
func fig4Rows(res *sweep.Result) ([]Fig4Point, error) {
	var pts []Fig4Point
	for _, o := range litho.Options {
		for _, n := range PaperSizes {
			td, ok1 := res.Td(o, n)
			tdnom, ok2 := res.TdNom(n)
			tdp, ok3 := res.TdpPct(o, n)
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("fig4 %v n=%d: point missing from sweep", o, n)
			}
			pts = append(pts, Fig4Point{Option: o, N: n, TdNom: tdnom, Td: td, TdpPct: tdp})
		}
	}
	return pts, nil
}

// table2Rows assembles the Table II comparison from a sweep result and
// the formula parameters.
func table2Rows(m analytic.Params, res *sweep.Result) ([]Table2Row, error) {
	var rows []Table2Row
	for _, n := range PaperSizes {
		sim, ok := res.TdNom(n)
		if !ok {
			return nil, fmt.Errorf("table2 n=%d: point missing from sweep", n)
		}
		rows = append(rows, Table2Row{N: n, SimTd: sim, FormulaTd: m.TdNom(n)})
	}
	return rows, nil
}

// table3Rows assembles the Table III comparison from a sweep result and
// the formula parameters.
func table3Rows(m analytic.Params, res *sweep.Result) ([]Table3Row, error) {
	var rows []Table3Row
	for _, o := range litho.Options {
		wc, ok := res.WorstCase(o)
		if !ok {
			return nil, fmt.Errorf("table3 %v: worst case missing from sweep", o)
		}
		for _, n := range PaperSizes {
			simPct, okP := res.TdpPct(o, n)
			if !okP {
				return nil, fmt.Errorf("table3 %v n=%d: point missing from sweep", o, n)
			}
			rows = append(rows, Table3Row{
				Option:     o,
				N:          n,
				SimPct:     simPct,
				FormulaPct: m.TdpPct(n, wc.Ratios.Rvar, wc.Ratios.Cvar),
			})
		}
	}
	return rows, nil
}

// FormatTable3 renders the comparison grouped by method, as in the paper.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table III: formula versus simulation tdp values (%) at worst case\n")
	fmt.Fprintf(&b, "%-12s %-10s", "method", "array")
	for _, o := range litho.Options {
		fmt.Fprintf(&b, " %10v", o)
	}
	b.WriteString("\n")
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[fmt.Sprintf("sim/%v/%d", r.Option, r.N)] = r.SimPct
		byKey[fmt.Sprintf("for/%v/%d", r.Option, r.N)] = r.FormulaPct
	}
	for _, method := range []string{"sim", "for"} {
		name := "Simulation"
		if method == "for" {
			name = "Formula"
		}
		for _, n := range PaperSizes {
			fmt.Fprintf(&b, "%-12s 10x%-7d", name, n)
			for _, o := range litho.Options {
				fmt.Fprintf(&b, " %+9.2f%%", byKey[fmt.Sprintf("%s/%v/%d", method, o, n)])
			}
			b.WriteString("\n")
			name = ""
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 5

// Fig5Result is the Monte-Carlo distribution for one option.
type Fig5Result struct {
	Option  litho.Option
	N       int
	OL      float64
	Summary stats.Summary
	Hist    *stats.Histogram
}

// Fig5 reproduces the Monte-Carlo tdp distribution figure at the given
// overlay budget and array size (paper: 8 nm, n = 64), for all options.
func Fig5(e Env, ol float64, n int) ([]Fig5Result, error) {
	m, err := e.Model()
	if err != nil {
		return nil, err
	}
	cfg := e.MC
	cfg.Collect = true
	var out []Fig5Result
	for _, o := range litho.Options {
		p := e.Proc
		if o == litho.LE3 {
			p = p.WithOL(ol)
		}
		trial, err := analytic.TdpTrial(p, o, m, e.Cap, []int{n})
		if err != nil {
			return nil, fmt.Errorf("fig5 %v: %w", o, err)
		}
		vr, err := mc.RunVector(e.ctx(), cfg, 1, trial)
		if err != nil {
			return nil, fmt.Errorf("fig5 %v: %w", o, err)
		}
		// Summarize sorts in place; nothing here needs the trial order.
		vals := vr.Values[0]
		s := stats.Summarize(vals)
		h, err := fig5Histogram(vals, s)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig5Result{Option: o, N: n, OL: ol, Summary: s, Hist: h})
	}
	return out, nil
}

// fig5Histogram bins the accepted values into 17 uniform bins spanning
// slightly beyond their observed range [s.Min, s.Max].
func fig5Histogram(vals []float64, s stats.Summary) (*stats.Histogram, error) {
	span := s.Max - s.Min
	if span <= 0 {
		span = 1e-9
	}
	h, err := stats.NewHistogram(s.Min-float64(0.02*span), s.Max+float64(0.02*span), 17)
	if err != nil {
		return nil, err
	}
	for _, v := range vals {
		h.Add(v)
	}
	return h, nil
}

// FormatFig5 renders the histograms.
func FormatFig5(results []Fig5Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "Fig. 5: Monte-Carlo tdp distribution, %v (3σ OL %.0fnm, n=%d)\n",
			r.Option, r.OL*1e9, r.N)
		fmt.Fprintf(&b, "%s\n%s\n", r.Summary, r.Hist.Render(52))
	}
	return b.String()
}

// ---------------------------------------------------------------- Table IV

// Table4 reproduces the tdp σ sweep (paper Table IV) at n = 64: the
// single-size view of Table4Surface, one cell per row.
func Table4(e Env) ([]SigmaSurfaceRow, error) {
	m, err := e.Model()
	if err != nil {
		return nil, err
	}
	return e.sigmaSurface(e.Proc, m, []int{64})
}

// Table4Surface extends Table IV across the whole array DOE: the tdp σ
// per option and overlay budget at every size in PaperSizes. Each
// option/overlay configuration consumes exactly one Monte-Carlo sample
// stream — the litho+extract pipeline runs once per trial and the
// extracted ratios feed the tdp formula at all four sizes, instead of
// resampling per (option, size) cell.
func Table4Surface(e Env) ([]SigmaSurfaceRow, error) {
	m, err := e.Model()
	if err != nil {
		return nil, err
	}
	return e.sigmaSurface(e.Proc, m, PaperSizes)
}

// FormatTable4Surface renders the extended sweep: one row per
// option/overlay, one σ column per array size.
func FormatTable4Surface(rows []SigmaSurfaceRow) string {
	var b strings.Builder
	b.WriteString("Table IV (extended): tdp σ values across the array DOE\n")
	fmt.Fprintf(&b, "%-24s", "patterning option")
	if len(rows) > 0 {
		for _, c := range rows[0].Cells {
			// Pad by rune count, not bytes: σ is 2 bytes / 1 column.
			h := fmt.Sprintf("σ@10x%d", c.N)
			fmt.Fprintf(&b, " %*s", 11+len(h)-utf8.RuneCountInString(h), h)
		}
	}
	b.WriteString("\n")
	for _, r := range rows {
		name := r.Option.String()
		if r.Option == litho.LE3 {
			name = fmt.Sprintf("%s %.0fnm OL", name, r.OL*1e9)
		}
		fmt.Fprintf(&b, "%-24s", name)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %11.3f", c.Sigma)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatTable4 renders the sweep paper-style from each row's one cell.
func FormatTable4(rows []SigmaSurfaceRow) string {
	var b strings.Builder
	b.WriteString("Table IV: patterning options & tdp σ values (array 10x64)\n")
	fmt.Fprintf(&b, "%-24s %12s %12s\n", "patterning option", "σ(tdp) [pp]", "mean [pp]")
	for _, r := range rows {
		name := r.Option.String()
		if r.Option == litho.LE3 {
			name = fmt.Sprintf("%s %.0fnm OL", name, r.OL*1e9)
		}
		fmt.Fprintf(&b, "%-24s %12.3f %+12.3f\n", name, r.Cells[0].Sigma, r.Cells[0].Mean)
	}
	return b.String()
}
