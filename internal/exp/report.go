// Bridges from experiment results to the generic report tables (CSV /
// Markdown output paths of the CLI).
package exp

import (
	"fmt"

	"mpsram/internal/litho"
	"mpsram/internal/report"
)

// Table1Report converts Table I rows.
func Table1Report(rows []Table1Row) *report.Table {
	t := report.New("Table I: worst-case variability per patterning option",
		"option", "corner", "dCbl_pct", "dRbl_pct", "dRvss_pct")
	for _, r := range rows {
		t.Appendf(r.Option.String(), r.Corner, r.CblPct, r.RblPct, r.RvssPct)
	}
	return t
}

// Fig3Report converts the DOE overview.
func Fig3Report(rows []Fig3Row) *report.Table {
	t := report.New("Fig. 3: array DOE", "columns", "wordlines", "summary")
	for _, r := range rows {
		t.Appendf(r.Columns, r.N, r.Summary)
	}
	return t
}

// Fig4Report converts the SPICE sweep points.
func Fig4Report(pts []Fig4Point) *report.Table {
	t := report.New("Fig. 4: worst-case td impact (SPICE)",
		"option", "wordlines", "td_nom_ps", "td_wc_ps", "tdp_pct")
	for _, p := range pts {
		t.Appendf(p.Option.String(), p.N, p.TdNom*1e12, p.Td*1e12, p.TdpPct)
	}
	return t
}

// Table2Report converts the tdnom comparison.
func Table2Report(rows []Table2Row) *report.Table {
	t := report.New("Table II: formula vs simulation tdnom",
		"wordlines", "sim_ps", "formula_ps", "ratio")
	for _, r := range rows {
		t.Appendf(r.N, r.SimTd*1e12, r.FormulaTd*1e12, r.SimTd/r.FormulaTd)
	}
	return t
}

// Table3Report converts the tdp comparison.
func Table3Report(rows []Table3Row) *report.Table {
	t := report.New("Table III: formula vs simulation tdp (%)",
		"option", "wordlines", "sim_pct", "formula_pct")
	for _, r := range rows {
		t.Appendf(r.Option.String(), r.N, r.SimPct, r.FormulaPct)
	}
	return t
}

// Fig5Report converts the Monte-Carlo distribution summaries (the
// histogram itself stays in the text renderer).
func Fig5Report(results []Fig5Result) *report.Table {
	t := report.New("Fig. 5: Monte-Carlo tdp distributions",
		"option", "ol_nm", "n", "samples", "mean_pp", "std_pp", "p05_pp", "p95_pp", "skew")
	for _, r := range results {
		t.Appendf(r.Option.String(), r.OL*1e9, r.N, r.Summary.N,
			r.Summary.Mean, r.Summary.Std, r.Summary.P05, r.Summary.P95, r.Summary.Skew)
	}
	return t
}

// Table4SurfaceReport converts the extended σ surface (long format: one
// record per option/overlay/size cell).
func Table4SurfaceReport(rows []SigmaSurfaceRow) *report.Table {
	t := report.New("Table IV (extended): tdp sigma per option across array sizes",
		"option", "ol_nm", "wordlines", "sigma_pp", "mean_pp")
	for _, r := range rows {
		ol := ""
		if r.Option == litho.LE3 {
			ol = fmt.Sprintf("%.0f", r.OL*1e9)
		}
		for _, c := range r.Cells {
			t.Appendf(r.Option.String(), ol, c.N, c.Sigma, c.Mean)
		}
	}
	return t
}

// Table4Report converts the σ sweep, one cell per row.
func Table4Report(rows []SigmaSurfaceRow) *report.Table {
	t := report.New("Table IV: tdp sigma per option",
		"option", "ol_nm", "sigma_pp", "mean_pp")
	for _, r := range rows {
		ol := ""
		if r.Option == litho.LE3 {
			ol = fmt.Sprintf("%.0f", r.OL*1e9)
		}
		t.Appendf(r.Option.String(), ol, r.Cells[0].Sigma, r.Cells[0].Mean)
	}
	return t
}
