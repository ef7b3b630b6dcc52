// Registry entries for the paper's experiments and the extension
// studies. Each init() block below turns one existing driver into a
// Workload; the drivers themselves (Table1, Fig4, SpiceTables, …) keep
// their typed signatures, so programmatic users lose nothing. Workloads
// with their own file (nodes, mcspice, mcspicex) register there.
package exp

import (
	"fmt"
	"strings"

	"mpsram/internal/analytic"
	"mpsram/internal/litho"
	"mpsram/internal/report"
	"mpsram/internal/sram"
	"mpsram/internal/tech"
)

// paramN is the shared array-size parameter spec.
func paramN(def int, help string) ParamSpec {
	return ParamSpec{Name: "n", Kind: IntParam, Default: def, Help: help}
}

func init() {
	Register(Workload{
		Name: "table1", Summary: "worst-case variability per patterning option",
		Order: 10, InAll: true,
		Run: func(e Env, p Params) (*Result, error) {
			rows, err := Table1(e)
			if err != nil {
				return nil, err
			}
			return &Result{Data: rows, Tables: []*report.Table{Table1Report(rows)}, Text: func() string { return FormatTable1(rows) }}, nil
		},
	})
	Register(Workload{
		Name: "fig2", Summary: "worst-case layout distortion",
		Order: 20, InAll: true,
		Run: func(e Env, p Params) (*Result, error) {
			entries, err := Fig2(e)
			if err != nil {
				return nil, err
			}
			return &Result{Data: entries, Tables: []*report.Table{Fig2Report(entries)}, Text: func() string { return FormatFig2(entries) }}, nil
		},
	})
	Register(Workload{
		Name: "fig3", Summary: "array DOE overview",
		Order: 30, InAll: true,
		Run: func(e Env, p Params) (*Result, error) {
			rows, err := Fig3(e)
			if err != nil {
				return nil, err
			}
			return &Result{Data: rows, Tables: []*report.Table{Fig3Report(rows)}, Text: func() string { return FormatFig3(rows) }}, nil
		},
	})
	Register(Workload{
		Name: "fig4", Summary: "worst-case td / tdp vs array size (SPICE)",
		Order: 40,
		Run: func(e Env, p Params) (*Result, error) {
			pts, err := Fig4(e)
			if err != nil {
				return nil, err
			}
			return &Result{Data: pts, Tables: []*report.Table{Fig4Report(pts)}, Text: func() string { return FormatFig4(pts) }}, nil
		},
	})
	Register(Workload{
		Name: "table2", Summary: "formula vs simulation tdnom",
		Order: 50,
		Run: func(e Env, p Params) (*Result, error) {
			rows, err := Table2(e)
			if err != nil {
				return nil, err
			}
			return &Result{Data: rows, Tables: []*report.Table{Table2Report(rows)}, Text: func() string { return FormatTable2(rows) }}, nil
		},
	})
	Register(Workload{
		Name: "table3", Summary: "formula vs simulation tdp",
		Order: 60,
		Run: func(e Env, p Params) (*Result, error) {
			rows, err := Table3(e)
			if err != nil {
				return nil, err
			}
			return &Result{Data: rows, Tables: []*report.Table{Table3Report(rows)}, Text: func() string { return FormatTable3(rows) }}, nil
		},
	})
	Register(Workload{
		Name: "spicetables", Summary: "fig4 + table2 + table3 from one shared deduplicated SPICE sweep",
		Order: 65, InAll: true,
		Run: func(e Env, p Params) (*Result, error) {
			res, err := SpiceTables(e)
			if err != nil {
				return nil, err
			}
			return &Result{
				Data:   res,
				Tables: []*report.Table{Fig4Report(res.Fig4), Table2Report(res.Table2), Table3Report(res.Table3)},
				Text: func() string {
					return FormatFig4(res.Fig4) + "\n" + FormatTable2(res.Table2) + "\n" + FormatTable3(res.Table3)
				},
			}, nil
		},
	})
	Register(Workload{
		Name: "fig5", Summary: "Monte-Carlo tdp distribution",
		Order: 70, InAll: true,
		Hints: Hints{Cost: 1},
		Params: []ParamSpec{
			paramN(64, "array word-line count"),
			{Name: "ol", Kind: FloatParam, Default: 0.0,
				Help: "LE3 overlay 3-sigma budget in nm (0 = the process budget)"},
		},
		Run: func(e Env, p Params) (*Result, error) {
			ol := p.Float("ol") * 1e-9
			if ol == 0 {
				ol = e.Proc.Var.OL3Sigma
			}
			res, err := Fig5(e, ol, p.Int("n"))
			if err != nil {
				return nil, err
			}
			return &Result{Data: res, Tables: []*report.Table{Fig5Report(res)}, Text: func() string { return FormatFig5(res) }}, nil
		},
	})
	Register(Workload{
		Name: "table4", Summary: "tdp sigma per option and overlay budget",
		Order: 80, InAll: true,
		Hints: Hints{Cost: 1},
		Run: func(e Env, p Params) (*Result, error) {
			rows, err := Table4(e)
			if err != nil {
				return nil, err
			}
			return &Result{Data: rows, Tables: []*report.Table{Table4Report(rows)}, Text: func() string { return FormatTable4(rows) }}, nil
		},
	})
	Register(Workload{
		Name: "table4x", Summary: "extended Table IV: tdp sigma across all DOE sizes (shared stream)",
		Order: 85,
		Hints: Hints{Cost: 1},
		Run: func(e Env, p Params) (*Result, error) {
			rows, err := Table4Surface(e)
			if err != nil {
				return nil, err
			}
			return &Result{Data: rows, Tables: []*report.Table{Table4SurfaceReport(rows)}, Text: func() string { return FormatTable4Surface(rows) }}, nil
		},
	})
	Register(Workload{
		Name: "table4xp", Summary: "per-process extended Table IV across the node set",
		Order: 90,
		Hints: Hints{Cost: 3},
		Run: func(e Env, p Params) (*Result, error) {
			surfs, err := Table4Surfaces(e)
			if err != nil {
				return nil, err
			}
			return &Result{Data: surfs, Tables: []*report.Table{Table4SurfacesReport(surfs)}, Text: func() string { return FormatTable4Surfaces(surfs) }}, nil
		},
	})
	Register(Workload{
		Name: "snm", Summary: "static noise margins (hold/read butterfly)",
		Order: 120,
		Run: func(e Env, p Params) (*Result, error) {
			res, err := sram.StaticNoiseMargins(e.Proc)
			if err != nil {
				return nil, err
			}
			t := report.New("Static noise margins", "process", "vdd_v", "hold_v", "read_v")
			t.Appendf(e.Proc.Name, e.Proc.FEOL.Vdd, res.Hold, res.Read)
			text := func() string {
				return fmt.Sprintf("static noise margins (%s, %.1f V):\n  hold: %.3f V\n  read: %.3f V\n",
					e.Proc.Name, e.Proc.FEOL.Vdd, res.Hold, res.Read)
			}
			return &Result{Data: res, Tables: []*report.Table{t}, Text: text}, nil
		},
	})
	Register(Workload{
		Name: "sens", Summary: "first-order tdp variance propagation per option",
		Order:  125,
		Params: []ParamSpec{paramN(64, "array word-line count")},
		Run: func(e Env, p Params) (*Result, error) {
			rows, err := Sens(e, p.Int("n"))
			if err != nil {
				return nil, err
			}
			return &Result{Data: rows, Tables: SensReports(rows), Text: func() string { return FormatSens(rows, p.Int("n")) }}, nil
		},
	})
	Register(Workload{
		Name: "ext", Summary: "extension studies: LE2 option, thickness source, write penalty",
		Order: 130,
		Params: []ParamSpec{
			paramN(64, "write-penalty array word-line count"),
			{Name: "thk", Kind: FloatParam, Default: 0.0,
				Help: "enable the thickness extension: 3-sigma in nm"},
		},
		Run: func(e Env, p Params) (*Result, error) {
			thk := p.Float("thk") * 1e-9
			rows, err := ExtTable1(e, thk)
			if err != nil {
				return nil, err
			}
			wrows, err := WritePenalty(e, p.Int("n"))
			if err != nil {
				return nil, err
			}
			return &Result{
				Data:   &ExtResults{Table1: rows, Write: wrows},
				Tables: []*report.Table{ExtTable1Report(rows, thk), WritePenaltyReport(wrows)},
				Text:   func() string { return FormatExtTable1(rows, thk) + FormatWritePenalty(wrows) },
			}, nil
		},
	})
	Register(Workload{
		Name: "processes", Summary: "list the technology registry (valid -process values)",
		Order: 140,
		Run: func(e Env, p Params) (*Result, error) {
			procs := tech.Default().Processes()
			return &Result{Data: procs, Tables: []*report.Table{ProcessesReport(procs)}, Text: func() string { return FormatProcesses(procs) }}, nil
		},
	})
	Register(Workload{
		Name: "workloads", Summary: "list the workload registry (this listing)",
		Order: 145,
		Run: func(e Env, p Params) (*Result, error) {
			ws := Workloads()
			return &Result{Data: ws, Tables: []*report.Table{WorkloadsReport(ws)}, Text: func() string { return FormatWorkloads(ws) }}, nil
		},
	})
	Register(Workload{
		Name: "all", Summary: "every experiment in paper order (a plan over the registry)",
		Order: 150,
		Run: func(e Env, p Params) (*Result, error) {
			return RunAll(e)
		},
	})
}

// RunAll executes the "all" plan: every registered workload marked InAll,
// in registry order, each with its default parameters, concatenated into
// one composite Result. It is how the paper-order report is produced —
// registering a workload with InAll adds it to the plan with no further
// wiring.
func RunAll(e Env) (*Result, error) {
	var (
		texts  []func() string
		tables []*report.Table
		data   = map[string]*Result{}
	)
	for _, w := range Workloads() {
		if !w.InAll {
			continue
		}
		res, err := Run(e, w.Name, nil)
		if err != nil {
			return nil, err
		}
		texts = append(texts, res.Text)
		tables = append(tables, res.Tables...)
		data[w.Name] = res
	}
	text := func() string {
		var b strings.Builder
		for i, text := range texts {
			if i > 0 {
				b.WriteByte('\n')
			}
			if text != nil {
				b.WriteString(text())
			}
		}
		b.WriteByte('\n')
		return b.String()
	}
	return &Result{Data: data, Tables: tables, Text: text}, nil
}

// Fig2Report converts the distortion entries for csv/md/json output. The
// ASCII section is a single-line strip, so it travels fine as a cell.
func Fig2Report(entries []Fig2Entry) *report.Table {
	t := report.New("Fig. 2: worst-case metal1 layout distortion",
		"option", "corner", "section")
	for _, en := range entries {
		t.Appendf(en.Option.String(), en.Describe, en.ASCII)
	}
	return t
}

// SensRow is one option's first-order variance propagation.
type SensRow struct {
	Option litho.Option
	Prop   analytic.Propagation
}

// Sens runs the first-order tdp variance propagation for every option
// (including the LE2 extension) at array size n.
func Sens(e Env, n int) ([]SensRow, error) {
	m, err := e.Model()
	if err != nil {
		return nil, err
	}
	var rows []SensRow
	for _, o := range litho.AllOptions {
		prop, err := analytic.PropagateTdp(e.Proc, o, m, e.Cap, n)
		if err != nil {
			return nil, fmt.Errorf("sens %v: %w", o, err)
		}
		rows = append(rows, SensRow{Option: o, Prop: prop})
	}
	return rows, nil
}

// FormatSens renders the propagation study.
func FormatSens(rows []SensRow, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "First-order tdp variance propagation (n=%d):\n", n)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8v σ(tdp) ≈ %.3f pp\n", r.Option, r.Prop.SigmaPP)
		for _, s := range r.Prop.Sensitivities {
			fmt.Fprintf(&b, "    %-10s σ=%5.2fnm  Δtdp/σ = %+7.3f pp\n",
				s.Param, s.Sigma*1e9, s.DTdpDSigma)
		}
	}
	return b.String()
}

// SensReports converts the propagation study: the per-option totals and
// the per-parameter breakdown as two tables.
func SensReports(rows []SensRow) []*report.Table {
	tot := report.New("First-order tdp variance propagation: totals",
		"option", "sigma_tdp_pp")
	brk := report.New("First-order tdp variance propagation: sensitivities",
		"option", "param", "sigma_nm", "dtdp_dsigma_pp")
	for _, r := range rows {
		tot.Appendf(r.Option.String(), r.Prop.SigmaPP)
		for _, s := range r.Prop.Sensitivities {
			brk.Appendf(r.Option.String(), s.Param, s.Sigma*1e9, s.DTdpDSigma)
		}
	}
	return []*report.Table{tot, brk}
}

// ExtResults bundles the extension workload's two studies.
type ExtResults struct {
	Table1 []Table1Row
	Write  []WritePenaltyRow
}

// ExtTable1Report converts the all-options corner study for csv/md/json.
func ExtTable1Report(rows []Table1Row, thk3sigma float64) *report.Table {
	t := report.New("Extension: worst-case variability, all options",
		"option", "corner", "thk3sigma_nm", "dCbl_pct", "dRbl_pct", "dRvss_pct")
	for _, r := range rows {
		t.Appendf(r.Option.String(), r.Corner, thk3sigma*1e9, r.CblPct, r.RblPct, r.RvssPct)
	}
	return t
}

// WritePenaltyReport converts the write-path extension for csv/md/json.
func WritePenaltyReport(rows []WritePenaltyRow) *report.Table {
	t := report.New("Extension: worst-case write-time penalty",
		"option", "wordlines", "tflip_nom_ps", "tflip_wc_ps", "penalty_pct")
	for _, r := range rows {
		t.Appendf(r.Option.String(), r.N, r.TFlipNom*1e12, r.TFlipWorst*1e12, r.PenaltyPct)
	}
	return t
}

// FormatProcesses renders the technology registry as text.
func FormatProcesses(procs []tech.Process) string {
	var b strings.Builder
	b.WriteString("technology registry (-process values):\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %10s %12s\n",
		"name", "pitch", "width", "CD 3σ", "OL 3σ", "rho")
	for _, p := range procs {
		fmt.Fprintf(&b, "%-6s %8.1fnm %8.1fnm %8.2fnm %8.2fnm %9.2e Ωm\n",
			p.Name, p.M1.Pitch*1e9, p.M1.Width*1e9,
			p.Var.CD3Sigma*1e9, p.Var.OL3Sigma*1e9, p.M1.Rho)
	}
	return b.String()
}

// ProcessesReport converts the registry listing for csv/md/json output.
func ProcessesReport(procs []tech.Process) *report.Table {
	t := report.New("Technology registry",
		"name", "m1_pitch_nm", "m1_width_nm", "m1_thickness_nm",
		"cd3sigma_nm", "spacer3sigma_nm", "ol3sigma_nm", "rho_ohm_m")
	for _, p := range procs {
		t.Appendf(p.Name, p.M1.Pitch*1e9, p.M1.Width*1e9, p.M1.Thickness*1e9,
			p.Var.CD3Sigma*1e9, p.Var.Spacer3Sigma*1e9, p.Var.OL3Sigma*1e9, p.M1.Rho)
	}
	return t
}

// FormatWorkloads renders the workload registry as text: the same
// name/summary listing the CLI usage embeds, plus each workload's
// parameter schema.
func FormatWorkloads(ws []Workload) string {
	var b strings.Builder
	b.WriteString("workload registry:\n")
	for _, w := range ws {
		fmt.Fprintf(&b, "  %-12s %s\n", w.Name, w.Summary)
		for _, ps := range w.Params {
			fmt.Fprintf(&b, "               -%s %v (default %v): %s\n", ps.Name, ps.Kind, ps.Default, ps.Help)
		}
	}
	return b.String()
}

// WorkloadsReport converts the registry listing for csv/md/json output —
// the machine-readable self-description of the experiment surface.
func WorkloadsReport(ws []Workload) *report.Table {
	t := report.New("Workload registry",
		"name", "summary", "params", "in_all", "samples_hint")
	for _, w := range ws {
		specs := make([]string, len(w.Params))
		for i, ps := range w.Params {
			specs[i] = fmt.Sprintf("%s:%v=%v", ps.Name, ps.Kind, ps.Default)
		}
		t.Appendf(w.Name, w.Summary, strings.Join(specs, " "), w.InAll, w.Hints.Samples)
	}
	return t
}
