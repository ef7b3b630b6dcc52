package exp

import (
	"math"
	"strings"
	"testing"
)

// TestSpiceMCCVTiny drives the control-variate estimator end-to-end
// through the registry at the smallest affordable budget and checks the
// paired-estimator invariants: the SPICE and formula observables share
// their deviates, so the measured correlation must be strong and the
// variance-reduction factor material even at a handful of draws; and the
// uncorrected SPICE summary must be bit-identical to the plain
// estimator's over the same stream (cv is an estimator change, not a
// sampling change).
func TestSpiceMCCVTiny(t *testing.T) {
	e := tinyEnv()
	e.MC.Samples = 6
	res, err := Run(e, "mcspice", Params{"sizes": "8", "cv": true})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]SpiceMCCVRow)
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	plain, err := SpiceMC(e, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.N != 8 || r.Spice.N != 6 {
			t.Fatalf("row shape drifted: %+v", r)
		}
		// Same deviates, same transients: the uncorrected view matches
		// the plain estimator bit for bit (modulo the NaN Skew field,
		// which never compares equal to itself).
		rs, ps := r.Spice, plain[i].Summary
		rs.Skew, ps.Skew = 0, 0
		if rs != ps {
			t.Fatalf("%v: paired-stream SPICE summary != plain estimator:\n%+v\n%+v",
				r.Option, rs, ps)
		}
		if r.Rho < 0.5 {
			t.Errorf("%v: SPICE↔formula correlation %v too weak — paired wiring broken", r.Option, r.Rho)
		}
		if r.VarReduction <= 1 {
			t.Errorf("%v: variance reduction %v ≤ 1", r.Option, r.VarReduction)
		}
		if r.EffectiveN <= float64(r.Spice.N) {
			t.Errorf("%v: effective N %v not above paired N %d", r.Option, r.EffectiveN, r.Spice.N)
		}
		if r.CVStd <= 0 || math.IsNaN(r.CVStd) || r.RefStd <= 0 {
			t.Errorf("%v: degenerate corrected σ %v (ref %v)", r.Option, r.CVStd, r.RefStd)
		}
		if r.RefSamples != CVRefSamples(6) {
			t.Errorf("%v: reference budget %d, want %d", r.Option, r.RefSamples, CVRefSamples(6))
		}
	}
	if !strings.Contains(res.Text(), "σ_cv") || !strings.Contains(res.Text(), "VR") {
		t.Fatalf("text drifted:\n%s", res.Text())
	}
	tbl := SpiceMCCVReport(rows)
	if len(tableRows(t, tbl)) != 3 || tbl.Columns[10] != "vr_factor" {
		t.Fatal("report table drifted")
	}
	// mcspicex -cv routes through the same driver.
	resX, err := Run(e, "mcspicex", Params{"sizes": "8", "cv": true})
	if err != nil {
		t.Fatal(err)
	}
	rowsX := resX.Data.([]SpiceMCCVRow)
	xs, ms := rowsX[0].Spice, rows[0].Spice
	xs.Skew, ms.Skew = 0, 0
	if len(rowsX) != 3 || xs != ms {
		t.Fatalf("mcspicex -cv drifted from mcspice -cv on the same stream")
	}
}

// TestCVRefSamples pins the reference-budget clamp.
func TestCVRefSamples(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{1, 400}, {6, 400}, {20, 1000}, {200, 10000}, {100000, 10000},
	} {
		if got := CVRefSamples(c.in); got != c.want {
			t.Errorf("CVRefSamples(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestCVSmokeVarianceReduction mirrors the CI smoke assertion: at the
// 4-draw smoke budget the measured variance-reduction factor must exceed
// 1 for every option (the SPICE and formula tdp are strongly correlated
// by construction). Skip-with-reason is reserved for a degenerate
// correlation, which would indicate budget, not wiring.
func TestCVSmokeVarianceReduction(t *testing.T) {
	e := tinyEnv()
	e.MC.Samples = 4
	rows, err := SpiceMCCV(e, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Rho == 0 {
			t.Skipf("%v: degenerate correlation at smoke budget (n=%d)", r.Option, r.Spice.N)
		}
		if r.VarReduction <= 1 {
			t.Errorf("%v: smoke-budget variance reduction %v ≤ 1 (ρ=%v)", r.Option, r.VarReduction, r.Rho)
		}
	}
}

// TestMCSpiceNodesTiny drives the cross-node workload at a tiny budget:
// one row per (node, option), each node on its own derived preset with
// the LE3 overlay pinned, and the σ-amplification summary rendered.
func TestMCSpiceNodesTiny(t *testing.T) {
	e := tinyEnv()
	e.MC.Samples = 4
	res, err := Run(e, "mcspicenodes", Params{"n": 8})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]MCSpiceNodesRow)
	if len(rows) != 9 { // 3 nodes × 3 options
		t.Fatalf("rows %d", len(rows))
	}
	seen := map[string]int{}
	for _, r := range rows {
		seen[r.Process]++
		if r.N != 8 || r.Spice.N != 4 || r.CVStd <= 0 || r.RefStd <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
	if len(seen) != 3 || seen["N10"] != 3 || seen["N5"] != 3 {
		t.Fatalf("node coverage drifted: %v", seen)
	}
	if !strings.Contains(res.Text(), "σ amplification N10 → N5:") {
		t.Fatalf("amplification summary missing:\n%s", res.Text())
	}
	if tbl := MCSpiceNodesReport(rows); len(tableRows(t, tbl)) != 9 || tbl.Columns[0] != "process" {
		t.Fatal("report table drifted")
	}
}
