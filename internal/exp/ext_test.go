package exp

import (
	"strings"
	"testing"

	"mpsram/internal/litho"
)

func TestExtTable1IncludesLE2(t *testing.T) {
	rows, err := ExtTable1(testEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(litho.AllOptions) {
		t.Fatalf("rows %d", len(rows))
	}
	byOpt := map[litho.Option]Table1Row{}
	for _, r := range rows {
		byOpt[r.Option] = r
	}
	le2 := byOpt[litho.LE2]
	le3 := byOpt[litho.LE3]
	euv := byOpt[litho.EUV]
	// LE2 between EUV and LE3 (overlay half-cancels).
	if !(le2.CblPct > euv.CblPct && le2.CblPct < le3.CblPct) {
		t.Fatalf("LE2 %.2f not between EUV %.2f and LE3 %.2f", le2.CblPct, euv.CblPct, le3.CblPct)
	}
	out := FormatExtTable1(rows, 0)
	if !strings.Contains(out, "LELE ") && !strings.Contains(out, "LELE\t") && !strings.Contains(out, "LELE") {
		t.Fatalf("format missing LE2 row: %s", out)
	}
}

func TestExtTable1ThicknessStrictlyWorsens(t *testing.T) {
	base, err := ExtTable1(testEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ExtTable1(testEnv(), 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if ext[i].CblPct < base[i].CblPct {
			t.Fatalf("%v: thickness source lost worst case: %.2f < %.2f",
				base[i].Option, ext[i].CblPct, base[i].CblPct)
		}
		if !strings.Contains(ext[i].Corner, "THK") {
			t.Fatalf("%v: worst corner does not use the thickness axis: %s",
				ext[i].Option, ext[i].Corner)
		}
	}
	if !strings.Contains(FormatExtTable1(ext, 2e-9), "thickness") {
		t.Fatal("format must flag the thickness source")
	}
}

func TestWritePenalty(t *testing.T) {
	rows, err := WritePenalty(testEnv(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	byOpt := map[litho.Option]WritePenaltyRow{}
	for _, r := range rows {
		byOpt[r.Option] = r
		if r.TFlipNom <= 0 || r.TFlipWorst <= 0 {
			t.Fatalf("%v: non-positive flip times %+v", r.Option, r)
		}
	}
	// LE3's capacitance blow-up must dominate the write penalty too.
	if !(byOpt[litho.LE3].PenaltyPct > byOpt[litho.SADP].PenaltyPct &&
		byOpt[litho.LE3].PenaltyPct > byOpt[litho.EUV].PenaltyPct) {
		t.Fatalf("LE3 write penalty should dominate: %+v", byOpt)
	}
	if !strings.Contains(FormatWritePenalty(rows), "write-time") {
		t.Fatal("format")
	}
}

func TestReportBridges(t *testing.T) {
	e := testEnv()
	t1, err := Table1(e)
	if err != nil {
		t.Fatal(err)
	}
	if tb := Table1Report(t1); len(tableRows(t, tb)) != len(t1) || len(tb.Columns) != 5 {
		t.Fatal("table1 bridge")
	}
	f3, err := Fig3(e)
	if err != nil {
		t.Fatal(err)
	}
	if tb := Fig3Report(f3); len(tableRows(t, tb)) != len(f3) {
		t.Fatal("fig3 bridge")
	}
	f5, err := Fig5(e, 8e-9, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tb := Fig5Report(f5); len(tableRows(t, tb)) != len(f5) {
		t.Fatal("fig5 bridge")
	}
	t4, err := Table4(e)
	if err != nil {
		t.Fatal(err)
	}
	tb := Table4Report(t4)
	if len(tableRows(t, tb)) != len(t4) {
		t.Fatal("table4 bridge")
	}
	// LE3 rows carry the overlay column, SADP/EUV leave it blank.
	sawBlank, sawOL := false, false
	for _, r := range tableRows(t, tb) {
		if r[1] == "" {
			sawBlank = true
		} else {
			sawOL = true
		}
	}
	if !sawBlank || !sawOL {
		t.Fatal("table4 overlay column")
	}
}

func TestReportBridgesSpice(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE sweeps")
	}
	e := testEnv()
	f4, err := Fig4(e)
	if err != nil {
		t.Fatal(err)
	}
	if tb := Fig4Report(f4); len(tableRows(t, tb)) != len(f4) {
		t.Fatal("fig4 bridge")
	}
	t2, err := Table2(e)
	if err != nil {
		t.Fatal(err)
	}
	if tb := Table2Report(t2); len(tableRows(t, tb)) != len(t2) {
		t.Fatal("table2 bridge")
	}
	t3, err := Table3(e)
	if err != nil {
		t.Fatal(err)
	}
	if tb := Table3Report(t3); len(tableRows(t, tb)) != len(t3) {
		t.Fatal("table3 bridge")
	}
}
