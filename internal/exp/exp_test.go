package exp

import (
	"context"
	"strings"
	"testing"

	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/stats"
)

// testEnv trims the Monte-Carlo budget for test speed.
func testEnv() Env {
	e := DefaultEnv()
	e.MC = mc.Config{Samples: 1500, Seed: 99}
	return e
}

func TestDefaultEnv(t *testing.T) {
	e := DefaultEnv()
	if err := e.Proc.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Cap == nil || e.MC.Samples < 1000 {
		t.Fatal("default env incomplete")
	}
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1PaperShape(t *testing.T) {
	rows, err := Table1(testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("row count %d", len(rows))
	}
	byOpt := map[litho.Option]Table1Row{}
	for _, r := range rows {
		byOpt[r.Option] = r
	}
	// Paper Table I ordering and signs.
	if !(byOpt[litho.LE3].CblPct > byOpt[litho.EUV].CblPct &&
		byOpt[litho.EUV].CblPct > byOpt[litho.SADP].CblPct) {
		t.Fatalf("ΔCbl ordering broken: %+v", byOpt)
	}
	for _, r := range rows {
		if r.RblPct >= 0 {
			t.Fatalf("%v worst corner must reduce Rbl: %+v", r.Option, r)
		}
	}
	if byOpt[litho.SADP].RvssPct <= 0 {
		t.Fatal("SADP worst corner must raise RVSS (anti-correlation)")
	}
	out := FormatTable1(rows)
	for _, want := range []string{"Table I", "LELELE", "SADP", "EUV", "ΔCbl"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Entries(t *testing.T) {
	es, err := Fig2(testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 {
		t.Fatalf("entries %d", len(es))
	}
	for _, e := range es {
		if e.ASCII == "" || e.Describe == "" {
			t.Fatalf("%v: empty artefacts", e.Option)
		}
		if err := e.Window.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(FormatFig2(es), "Fig. 2") {
		t.Fatal("format header")
	}
}

func TestFig3DOE(t *testing.T) {
	rows, err := Fig3(testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperSizes) {
		t.Fatalf("rows %d", len(rows))
	}
	for i, r := range rows {
		if r.N != PaperSizes[i] || r.Columns != PaperColumns {
			t.Fatalf("row %+v", r)
		}
	}
	if !strings.Contains(FormatFig3(rows), "10x1024") {
		t.Fatal("format")
	}
}

func TestTable2FormulaUnderestimatesSimulation(t *testing.T) {
	rows, err := Table2(testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperSizes) {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		// Paper Table II: the lumped formula underestimates the full
		// simulation at every size.
		if r.FormulaTd >= r.SimTd {
			t.Fatalf("n=%d: formula %g not below simulation %g", r.N, r.FormulaTd, r.SimTd)
		}
		// ...but stays within one order of magnitude.
		if r.SimTd/r.FormulaTd > 10 {
			t.Fatalf("n=%d: formula off by more than 10x", r.N)
		}
	}
	if !strings.Contains(FormatTable2(rows), "Table II") {
		t.Fatal("format")
	}
}

func TestTable3FormulaTracksSimExceptSADPAtLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPICE sweep")
	}
	rows, err := Table3(testEnv())
	if err != nil {
		t.Fatal(err)
	}
	get := func(o litho.Option, n int) Table3Row {
		for _, r := range rows {
			if r.Option == o && r.N == n {
				return r
			}
		}
		t.Fatalf("missing row %v %d", o, n)
		return Table3Row{}
	}
	// LE3 and EUV: formula within a few points of simulation everywhere.
	for _, o := range []litho.Option{litho.LE3, litho.EUV} {
		for _, n := range PaperSizes {
			r := get(o, n)
			if d := r.FormulaPct - r.SimPct; d > 8 || d < -8 {
				t.Errorf("%v n=%d: formula %.2f vs sim %.2f", o, n, r.FormulaPct, r.SimPct)
			}
		}
	}
	// SADP at 1024: the paper's divergence — formula negative,
	// simulation positive.
	r := get(litho.SADP, 1024)
	if r.FormulaPct >= 0 {
		t.Errorf("SADP formula at 1024 = %+.2f, want negative", r.FormulaPct)
	}
	if r.SimPct <= 0 {
		t.Errorf("SADP simulation at 1024 = %+.2f, want positive", r.SimPct)
	}
	// And agreement at n ≤ 64 (paper: formula fine for short arrays).
	r64 := get(litho.SADP, 64)
	if d := r64.FormulaPct - r64.SimPct; d > 4 || d < -4 {
		t.Errorf("SADP n=64: formula %+.2f vs sim %+.2f", r64.FormulaPct, r64.SimPct)
	}
	if !strings.Contains(FormatTable3(rows), "Simulation") {
		t.Fatal("format")
	}
}

func TestFig5Distributions(t *testing.T) {
	res, err := Fig5(testEnv(), 8e-9, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results %d", len(res))
	}
	byOpt := map[litho.Option]Fig5Result{}
	for _, r := range res {
		byOpt[r.Option] = r
		if r.Hist.Total() == 0 {
			t.Fatalf("%v: empty histogram", r.Option)
		}
	}
	// Paper Fig. 5: LE3 distribution is much wider than SADP.
	if byOpt[litho.LE3].Summary.Std < 2*byOpt[litho.SADP].Summary.Std {
		t.Fatalf("LE3 σ %.3f not ≫ SADP σ %.3f",
			byOpt[litho.LE3].Summary.Std, byOpt[litho.SADP].Summary.Std)
	}
	if !strings.Contains(FormatFig5(res), "Fig. 5") {
		t.Fatal("format")
	}
}

// TestFig5Histogram: every accepted draw of every Fig. 5 distribution
// lands inside its histogram's range, and the LE3 distribution is
// right-skewed (coupling blows up faster when lines approach than it
// relaxes when they separate).
func TestFig5Histogram(t *testing.T) {
	res, err := Fig5(testEnv(), 8e-9, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Hist.Total() != r.Summary.N {
			t.Fatalf("%v: histogram holds %d of %d values", r.Option, r.Hist.Total(), r.Summary.N)
		}
		if u, o := r.Hist.Outliers(); u != 0 || o != 0 {
			t.Fatalf("%v: range should cover all values: %d/%d", r.Option, u, o)
		}
		if r.Option == litho.LE3 && r.Summary.Skew <= 0 {
			t.Fatalf("LE3 tdp skew %g, want positive", r.Summary.Skew)
		}
	}
}

func TestDegenerateHistogramRange(t *testing.T) {
	vals := []float64{1, 1, 1}
	h, err := fig5Histogram(vals, stats.Summarize(vals))
	if err != nil {
		t.Fatalf("degenerate range must still histogram: %v", err)
	}
	if u, o := h.Outliers(); h.Total() != 3 || u != 0 || o != 0 {
		t.Fatalf("degenerate range lost values: total %d outliers %d/%d", h.Total(), u, o)
	}
}

func TestTable4Sweep(t *testing.T) {
	rows, err := Table4(testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperOLBudgets)+2 {
		t.Fatalf("rows %d", len(rows))
	}
	if !strings.Contains(FormatTable4(rows), "Table IV") {
		t.Fatal("format")
	}
}

func TestTable4SurfaceSharedStream(t *testing.T) {
	e := testEnv()
	rows, err := Table4Surface(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperOLBudgets)+2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Cells) != len(PaperSizes) {
			t.Fatalf("%v: cells %d", r.Option, len(r.Cells))
		}
		for j, c := range r.Cells {
			if c.N != PaperSizes[j] || c.Sigma <= 0 {
				t.Fatalf("%v cell %+v", r.Option, c)
			}
		}
	}
	// The n=64 column must agree exactly with the classic Table IV (both
	// come from the same engine and the same per-trial PRNG derivation).
	sweep, err := Table4(e)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Cells[1].Sigma != sweep[i].Cells[0].Sigma {
			t.Fatalf("row %d: surface σ %g vs sweep σ %g", i, r.Cells[1].Sigma, sweep[i].Cells[0].Sigma)
		}
	}
	out := FormatTable4Surface(rows)
	for _, want := range []string{"Table IV (extended)", "σ@10x1024", "SADP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	if got := len(tableRows(t, Table4SurfaceReport(rows))); got != len(rows)*len(PaperSizes) {
		t.Fatalf("report rows %d", got)
	}
}

func TestEnvContextCancelsExperiments(t *testing.T) {
	e := testEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Ctx = ctx
	if _, err := Table4(e); err == nil {
		t.Fatal("canceled context must abort Table IV")
	}
	if _, err := Fig5(e, 8e-9, 64); err == nil {
		t.Fatal("canceled context must abort Fig. 5")
	}
}
