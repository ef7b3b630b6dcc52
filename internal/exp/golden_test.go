package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mpsram/internal/mc"
	"mpsram/internal/report"
)

// update regenerates the golden CSVs instead of comparing against them:
//
//	go test ./internal/exp -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenEnv pins the experiment inputs of the golden files: the default
// N10 preset at a fixed seed with a tiny Monte-Carlo budget, so the full
// battery stays test-suite cheap while still exercising every layer the
// real experiments use (litho → extract → analytic/SPICE → aggregation).
func goldenEnv() Env {
	e := DefaultEnv()
	e.MC = mc.Config{Samples: 400, Seed: 2015}
	return e
}

// checkGolden compares the CSV rendering of tbl against the committed
// golden file, or rewrites it under -update. Golden files catch numeric
// drift: any engine refactor that changes a float in these tables —
// sparse solver, SPICE integration, sampling, aggregation — fails here
// first, with a diffable artifact.
func checkGolden(t *testing.T, name string, tbl *report.Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Write(&buf, report.FormatCSV); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("%s drifted from golden.\n--- want\n%s\n--- got\n%s", name, want, buf.Bytes())
	}
}

// TestGoldenSpiceTables snapshots the three SPICE-driven reproductions
// from one shared sweep (the same plan `mpvar all` issues).
func TestGoldenSpiceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full-DOE SPICE sweep in -short mode")
	}
	res, err := SpiceTables(goldenEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig4.csv", Fig4Report(res.Fig4))
	checkGolden(t, "table2.csv", Table2Report(res.Table2))
	checkGolden(t, "table3.csv", Table3Report(res.Table3))
}

// TestGoldenTable4Surface snapshots the extended Table IV at the tiny
// fixed budget (exact collected statistics, bit-identical across worker
// counts).
func TestGoldenTable4Surface(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo surface in -short mode")
	}
	rows, err := Table4Surface(goldenEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4surface.csv", Table4SurfaceReport(rows))
}

// TestGoldenNodes snapshots the cross-node σ comparison: every float
// crosses the registry (derived N7/N5 presets), the per-node analytic
// models and the shared Monte-Carlo streams.
func TestGoldenNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-node Monte-Carlo in -short mode")
	}
	rows, err := NodesAt(goldenEnv(), NodesN)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "nodes.csv", NodesReport(rows, NodesN))
}

// TestGoldenTable4SurfacesPerProcess snapshots the per-process extended
// Table IV (the N10 block doubles as a cross-check against
// table4surface.csv: same numbers, prefixed by the process column).
func TestGoldenTable4SurfacesPerProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("three-node Monte-Carlo surface in -short mode")
	}
	surfs, err := Table4Surfaces(goldenEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4surfaces.csv", Table4SurfacesReport(surfs))
}

// TestGoldenFig5 snapshots the Fig. 5 distributions through the registry:
// the collect path's exact summaries and the 17-bin histograms built from
// the collected values.
func TestGoldenFig5(t *testing.T) {
	res, err := Run(goldenEnv(), "fig5", nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5.csv", res.Tables[0])
	hist := report.New("Fig. 5 histograms", "option", "bin", "center_pp", "count")
	for _, r := range res.Data.([]Fig5Result) {
		if under, over := r.Hist.Outliers(); under != 0 || over != 0 || r.Hist.Total() != r.Summary.N {
			t.Fatalf("%v: histogram holds %d of %d values (%d under, %d over)",
				r.Option, r.Hist.Total(), r.Summary.N, under, over)
		}
		for i, c := range r.Hist.Counts {
			hist.Appendf(r.Option.String(), i, r.Hist.BinCenter(i), c)
		}
	}
	checkGolden(t, "fig5hist.csv", hist)
}

// TestGoldenExtThickness snapshots the extension tables with the
// thickness source on: the worst-case search over every option including
// LE2 (the THK parameter widens each corner set) and the write penalty at
// each paper option's worst corner.
func TestGoldenExtThickness(t *testing.T) {
	res, err := Run(goldenEnv(), "ext", Params{"thk": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ext_table1_thk2.csv", res.Tables[0])
	checkGolden(t, "ext_write_thk2.csv", res.Tables[1])
}

// TestGoldenSpiceMC snapshots the SPICE-in-the-loop Monte-Carlo at a
// minimal budget — the one table whose every float crosses the resident
// engine Reset path.
func TestGoldenSpiceMC(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-in-the-loop MC in -short mode")
	}
	e := goldenEnv()
	e.MC.Samples = 12
	rows, err := SpiceMC(e, []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mcspice.csv", SpiceMCReport(rows))
}

// TestGoldenMCSpiceX snapshots the paired SPICE/analytic Monte-Carlo at a
// minimal budget, through the registry (Run) rather than the driver, so
// the golden also pins the workload's parameter plumbing.
func TestGoldenMCSpiceX(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-in-the-loop MC in -short mode")
	}
	e := goldenEnv()
	e.MC.Samples = 12
	res, err := Run(e, "mcspicex", Params{"sizes": "8,16"})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mcspicex.csv", res.Tables[0])
}
