package exp

import (
	"encoding/csv"
	"strings"
	"testing"

	"mpsram/internal/litho"
	"mpsram/internal/report"
)

// tableRows reads a table's rows back from its CSV rendering, as cells
// of text.
func tableRows(t *testing.T, tb *report.Table) [][]string {
	t.Helper()
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(b.String()))
	r.Comment = '#'
	r.FieldsPerRecord = len(tb.Columns)
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", tb.Title, err)
	}
	return recs[1:]
}

// The SPICE tables must be reachable through the structured report path
// (mpvar -format csv|md), not only the paper-style text renderers. These
// tests drive the same builders the CLI's emit path uses, on synthetic
// rows so they stay SPICE-free.

func TestFig4ReportFormats(t *testing.T) {
	pts := []Fig4Point{
		{Option: litho.LE3, N: 16, TdNom: 10e-12, Td: 12e-12, TdpPct: 20},
		{Option: litho.EUV, N: 1024, TdNom: 400e-12, Td: 440e-12, TdpPct: 10},
	}
	tbl := Fig4Report(pts)
	if len(tableRows(t, tbl)) != len(pts) {
		t.Fatalf("rows %d", len(tableRows(t, tbl)))
	}
	var csv, md strings.Builder
	if err := tbl.Write(&csv, report.FormatCSV); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Write(&md, report.FormatMarkdown); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"option", "wordlines", "td_nom_ps", "LELELE", "1024"} {
		if !strings.Contains(csv.String(), want) {
			t.Errorf("csv missing %q:\n%s", want, csv.String())
		}
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

func TestTable2ReportFormats(t *testing.T) {
	rows := []Table2Row{
		{N: 16, SimTd: 11e-12, FormulaTd: 9e-12},
		{N: 64, SimTd: 30e-12, FormulaTd: 25e-12},
	}
	tbl := Table2Report(rows)
	if len(tableRows(t, tbl)) != len(rows) {
		t.Fatalf("rows %d", len(tableRows(t, tbl)))
	}
	var csv strings.Builder
	if err := tbl.Write(&csv, report.FormatCSV); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wordlines", "sim_ps", "formula_ps", "ratio"} {
		if !strings.Contains(csv.String(), want) {
			t.Errorf("csv missing %q:\n%s", want, csv.String())
		}
	}
	var md strings.Builder
	if err := tbl.Write(&md, report.FormatMarkdown); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "|") {
		t.Error("markdown table has no pipes")
	}
}

func TestTable3ReportFormats(t *testing.T) {
	rows := []Table3Row{
		{Option: litho.SADP, N: 1024, SimPct: 3.2, FormulaPct: -1.1},
	}
	tbl := Table3Report(rows)
	if len(tableRows(t, tbl)) != 1 {
		t.Fatalf("rows %d", len(tableRows(t, tbl)))
	}
	var csv strings.Builder
	if err := tbl.Write(&csv, report.FormatCSV); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"option", "sim_pct", "formula_pct", "SADP"} {
		if !strings.Contains(csv.String(), want) {
			t.Errorf("csv missing %q:\n%s", want, csv.String())
		}
	}
}
