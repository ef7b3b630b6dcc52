package exp

import (
	"strings"
	"testing"

	"mpsram/internal/tech"
)

// nodesEnv trims the budget for the cross-node tests (3 nodes × 6
// configurations per run).
func nodesEnv() Env {
	e := testEnv()
	e.MC.Samples = 1000
	return e
}

// TestNodesCoversRegistry checks the row layout: every registry node
// contributes the full Table IV configuration set, in registry order.
func TestNodesCoversRegistry(t *testing.T) {
	rows, err := NodesAt(nodesEnv(), NodesN)
	if err != nil {
		t.Fatal(err)
	}
	wantConfigs := len(PaperOLBudgets) + 2 // LE3 per budget + SADP + EUV
	names := tech.Default().Names()
	if len(rows) != len(names)*wantConfigs {
		t.Fatalf("%d rows, want %d", len(rows), len(names)*wantConfigs)
	}
	for i, r := range rows {
		if want := names[i/wantConfigs]; r.Process != want {
			t.Fatalf("row %d: process %s, want %s", i, r.Process, want)
		}
		if r.Sigma <= 0 {
			t.Fatalf("row %d (%s %v): non-positive σ %g", i, r.Process, r.Option, r.Sigma)
		}
	}
}

// TestNodesLE3WorsensAtTighterNodes gates the study's headline physics:
// the LE3 overlay-driven σ must grow monotonically from N10 to N5 at
// every overlay budget — the pitch shrinks faster than the litho control
// tightens, so the same ±3σ overlay eats a larger fraction of the
// spacing — while self-aligned SADP stays in its band (no overlay term).
func TestNodesLE3WorsensAtTighterNodes(t *testing.T) {
	rows, err := NodesAt(nodesEnv(), NodesN)
	if err != nil {
		t.Fatal(err)
	}
	sigma := map[string]float64{}
	for _, r := range rows {
		sigma[r.Process+"/"+nodesRowName(r.Option, r.OL)] = r.Sigma
	}
	order := []string{"N10", "N7", "N5"}
	for _, ol := range []string{"3", "5", "7", "8"} {
		conf := "LELELE " + ol + "nm OL"
		for i := 1; i < len(order); i++ {
			lo, hi := sigma[order[i-1]+"/"+conf], sigma[order[i]+"/"+conf]
			if hi <= lo {
				t.Errorf("%s: σ %g at %s not above %g at %s", conf, hi, order[i], lo, order[i-1])
			}
		}
	}
	for _, nd := range order {
		if s := sigma[nd+"/SADP"]; s > sigma[nd+"/LELELE 8nm OL"] {
			t.Errorf("%s: SADP σ %g above LE3@8nm", nd, s)
		}
	}
}

// TestNodesDeterministicAcrossWorkers extends the bit-identity contract
// across the process axis: the cross-node table must be exactly equal at
// 1 and 8 workers.
func TestNodesDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []NodesRow {
		e := nodesEnv()
		e.MC.Workers = workers
		rows, err := NodesAt(e, NodesN)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		rows := run(workers)
		if len(rows) != len(base) {
			t.Fatalf("workers=%d: %d rows vs %d", workers, len(rows), len(base))
		}
		for i := range base {
			if rows[i] != base[i] {
				t.Fatalf("workers=%d row %d: %+v != %+v", workers, i, rows[i], base[i])
			}
		}
	}
	if FormatNodes(base, NodesN) == "" {
		t.Fatal("empty rendering")
	}
}

// TestTable4SurfacesPrimaryMatchesSingleNodePath pins the view contract:
// the registry's N10 surface must be bit-identical to the single-node
// Table4Surface — the per-process path is a sweep over the same streams,
// not a reimplementation.
func TestTable4SurfacesPrimaryMatchesSingleNodePath(t *testing.T) {
	if testing.Short() {
		t.Skip("full-DOE surfaces for three nodes")
	}
	e := nodesEnv()
	surfs, err := Table4Surfaces(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(surfs) != 3 || surfs[0].Process != "N10" {
		t.Fatalf("surfaces %d, first %q", len(surfs), surfs[0].Process)
	}
	single, err := Table4Surface(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != len(surfs[0].Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(single), len(surfs[0].Rows))
	}
	for i := range single {
		a, b := single[i], surfs[0].Rows[i]
		if a.Option != b.Option || a.OL != b.OL || len(a.Cells) != len(b.Cells) {
			t.Fatalf("row %d: shape mismatch", i)
		}
		for j := range a.Cells {
			if a.Cells[j] != b.Cells[j] {
				t.Fatalf("row %d cell %d: %+v != %+v", i, j, a.Cells[j], b.Cells[j])
			}
		}
	}
	if !strings.Contains(FormatTable4Surfaces(surfs), "[N5]") {
		t.Fatal("per-process rendering lacks node headers")
	}
	if got := len(tableRows(t, Table4SurfacesReport(surfs))); got != 3*6*len(PaperSizes) {
		t.Fatalf("report rows %d", got)
	}
}

// TestNodesAndSurfaceReports covers the csv/md bridge of the cross-node
// workloads at a trimmed budget (short-mode cheap).
func TestNodesAndSurfaceReports(t *testing.T) {
	e := nodesEnv()
	e.MC.Samples = 200
	rows, err := NodesAt(e, 16)
	if err != nil {
		t.Fatal(err)
	}
	rt := NodesReport(rows, 16)
	if len(tableRows(t, rt)) != len(rows) {
		t.Fatalf("report rows %d, want %d", len(tableRows(t, rt)), len(rows))
	}
	surfs, err := Table4Surfaces(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(surfs) != 3 {
		t.Fatalf("%d surfaces", len(surfs))
	}
	txt := FormatTable4Surfaces(surfs)
	for _, nd := range tech.Default().Names() {
		if !strings.Contains(txt, "["+nd+"]") {
			t.Fatalf("rendering lacks %s header", nd)
		}
	}
	if got := len(tableRows(t, Table4SurfacesReport(surfs))); got != 3*6*len(PaperSizes) {
		t.Fatalf("surface report rows %d", got)
	}
}
