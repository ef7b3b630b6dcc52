package sram

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

var cm = extract.SakuraiTamaru{}

func nominal(t *testing.T) (tech.Process, CellParasitics) {
	t.Helper()
	p := tech.N10()
	cp, err := NominalParasitics(p, cm)
	if err != nil {
		t.Fatal(err)
	}
	return p, cp
}

func TestNominalParasiticsBands(t *testing.T) {
	_, cp := nominal(t)
	if cp.Rbl < 2 || cp.Rbl > 20 {
		t.Fatalf("Rbl per cell %.3g Ω outside band", cp.Rbl)
	}
	if cp.Cbl < 10e-18 || cp.Cbl > 60e-18 {
		t.Fatalf("Cbl per cell %.3g F outside band", cp.Cbl)
	}
	if math.Abs(cp.Rvss-cp.Rbl) > 1e-9 {
		t.Fatalf("nominal VSS and BL rails are same-width wires: %g vs %g", cp.Rvss, cp.Rbl)
	}
}

func TestScaleRatios(t *testing.T) {
	_, cp := nominal(t)
	r := extract.Ratios{Rvar: 0.9, Cvar: 1.5, RvssVar: 1.1}
	s := cp.Scale(r)
	if math.Abs(s.Rbl-0.9*cp.Rbl) > 1e-12*cp.Rbl ||
		math.Abs(s.Cbl-1.5*cp.Cbl) > 1e-12*cp.Cbl ||
		math.Abs(s.Rvss-1.1*cp.Rvss) > 1e-12*cp.Rvss {
		t.Fatalf("Scale broken: %+v", s)
	}
}

func TestBuildColumnErrors(t *testing.T) {
	p, cp := nominal(t)
	if _, err := BuildColumn(p, 0, cp, BuildOptions{}); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := BuildColumn(p, 16, CellParasitics{}, BuildOptions{}); err == nil {
		t.Fatal("zero parasitics must error")
	}
}

func TestSegmentSelection(t *testing.T) {
	cases := []struct {
		n    int
		opt  BuildOptions
		want int
	}{
		{16, BuildOptions{}, 16},
		{1024, BuildOptions{}, 64},
		{1024, BuildOptions{Segments: 8}, 8},
		{4, BuildOptions{Segments: 99}, 4},
		{1024, BuildOptions{Lumped: true}, 1},
	}
	for _, c := range cases {
		if got := c.opt.segments(c.n); got != c.want {
			t.Errorf("segments(n=%d, %+v) = %d, want %d", c.n, c.opt, got, c.want)
		}
	}
}

// LadderTotals returns the total ladder R and C that segment lumping
// spreads over the column for the given build options.
func LadderTotals(p tech.Process, n int, cp CellParasitics, opt BuildOptions) (rTot, cTot float64) {
	segs := opt.segments(n)
	cellsPerSeg := float64(n) / float64(segs)
	segR := cp.Rbl * cellsPerSeg
	segC := (cp.Cbl + CFE(p.FEOL)) * cellsPerSeg
	rTot = segR * float64(segs)
	total := 0.0
	for i := 0; i <= segs; i++ {
		share := 1.0
		if i == 0 || i == segs {
			share = 0.5
		}
		if segs == 1 {
			share = 0.5
		}
		total += float64(segC * share)
	}
	cTot = total
	return rTot, cTot
}

// ladderCapError is the relative error of the lumped C against
// n·(Cbl+CFE); lumping must conserve it within fp noise.
func ladderCapError(p tech.Process, n int, cp CellParasitics, opt BuildOptions) float64 {
	_, cTot := LadderTotals(p, n, cp, opt)
	want := float64(float64(n) * (cp.Cbl + CFE(p.FEOL)))
	return math.Abs(cTot-want) / want
}

func TestLadderConservesTotals(t *testing.T) {
	p, cp := nominal(t)
	for _, n := range []int{1, 16, 64, 1000, 1024} {
		for _, opt := range []BuildOptions{{}, {Segments: 7}, {Lumped: true}} {
			if e := ladderCapError(p, n, cp, opt); e > 1e-12 {
				t.Errorf("n=%d %+v: ladder capacitance error %g", n, opt, e)
			}
			rTot, _ := LadderTotals(p, n, cp, opt)
			if math.Abs(rTot-float64(n)*cp.Rbl) > 1e-9*rTot {
				t.Errorf("n=%d %+v: ladder resistance %g, want %g", n, opt, rTot, float64(n)*cp.Rbl)
			}
		}
	}
}

func TestColumnNetlistShape(t *testing.T) {
	p, cp := nominal(t)
	col, err := BuildColumn(p, 16, cp, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
	// 6 cell transistors + 2 precharge devices.
	if got := len(col.Netlist.Ms); got != 8 {
		t.Fatalf("device count %d, want 8", got)
	}
	// 16 segments on bl, blb, vss + taps + 2 init helpers.
	if got := len(col.Netlist.Rs); got != 16*3+1+2 {
		t.Fatalf("resistor count %d", got)
	}
}

func TestReadTdNominalBandsAndMonotonicity(t *testing.T) {
	p, cp := nominal(t)
	prev := 0.0
	for _, n := range []int{16, 64, 256} {
		col, err := BuildColumn(p, n, cp, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := col.MeasureTd(cp, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rr.Td <= prev {
			t.Fatalf("td not increasing with n: %g after %g", rr.Td, prev)
		}
		// Superlinear: td(4n) > 2·td(n) once the array load dominates.
		if prev > 0 && rr.Td < 2*prev {
			t.Fatalf("td growth sublinear: %g -> %g", prev, rr.Td)
		}
		prev = rr.Td
		// Bands: single to hundreds of ps.
		if rr.Td < 1e-12 || rr.Td > 1e-9 {
			t.Fatalf("td(n=%d) = %g s outside sanity band", n, rr.Td)
		}
	}
}

func TestReadWaveformHealth(t *testing.T) {
	p, cp := nominal(t)
	col, err := BuildColumn(p, 16, cp, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := col.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := rr.Result
	// The cell must start in the q=0 state (nodeset worked).
	q0 := res.NodeWave(col.Q)[0]
	qb0 := res.NodeWave(col.QB)[0]
	if q0 > 0.05 || qb0 < 0.65 {
		t.Fatalf("initial cell state q=%g qb=%g (metastable DC solution?)", q0, qb0)
	}
	// BLB floats near vdd for the whole read.
	for _, v := range res.NodeWave(col.BLBSense) {
		if v < 0.67 {
			t.Fatalf("blb drooped to %g", v)
		}
	}
	// Read disturb on q stays below the flip threshold.
	if peak := col.SenseMargin(res); peak > 0.3 {
		t.Fatalf("read disturb peak %g V", peak)
	}
	// BL at the far (cell) end leads the sense end during discharge.
	far := res.NodeWave(col.BLFar)
	sense := res.NodeWave(col.BLSense)
	mid := len(far) / 2
	if far[mid] > sense[mid]+1e-4 {
		t.Fatalf("far end (%g) above sense end (%g) during discharge", far[mid], sense[mid])
	}
}

func TestWorstCaseTdpFig4Shape(t *testing.T) {
	// Fig. 4 reproduction gate at n=64: LE3 tdp in the 15–30 % band,
	// SADP and EUV below 5 %.
	p, _ := nominal(t)
	tdps := map[litho.Option]float64{}
	for _, o := range litho.Options {
		wc, err := extract.WorstCase(p, o, cm)
		if err != nil {
			t.Fatal(err)
		}
		tdp, _, _, err := oneShotTdp(p, cm, o, wc.Sample, 64, BuildOptions{}, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tdps[o] = tdp
	}
	if tdps[litho.LE3] < 12 || tdps[litho.LE3] > 32 {
		t.Errorf("LE3 tdp %.2f%% outside the ~20%% band", tdps[litho.LE3])
	}
	if tdps[litho.SADP] < 0 || tdps[litho.SADP] > 5 {
		t.Errorf("SADP tdp %.2f%% outside <5%% band", tdps[litho.SADP])
	}
	if tdps[litho.EUV] < 0 || tdps[litho.EUV] > 6 {
		t.Errorf("EUV tdp %.2f%% outside band", tdps[litho.EUV])
	}
	if !(tdps[litho.LE3] > tdps[litho.EUV] && tdps[litho.LE3] > tdps[litho.SADP]) {
		t.Errorf("LE3 must dominate: %+v", tdps)
	}
}

func TestEUVTdpTurnsNegativeAtLargeArrays(t *testing.T) {
	// Paper Fig. 4: EUV tdp is negative at n=1024 (Rvar·Cvar < 1 drives
	// the quadratic term below nominal).
	if testing.Short() {
		t.Skip("large-array transient")
	}
	p, _ := nominal(t)
	wc, err := extract.WorstCase(p, litho.EUV, cm)
	if err != nil {
		t.Fatal(err)
	}
	tdp, _, _, err := oneShotTdp(p, cm, litho.EUV, wc.Sample, 1024, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tdp >= 0.5 {
		t.Fatalf("EUV tdp at n=1024 = %.2f%%, want near/below zero", tdp)
	}
	// SADP stays positive at n=1024 (the RVSS anti-correlation effect).
	wcS, _ := extract.WorstCase(p, litho.SADP, cm)
	tdpS, _, _, err := oneShotTdp(p, cm, litho.SADP, wcS.Sample, 1024, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tdpS <= 0 {
		t.Fatalf("SADP tdp at n=1024 = %.2f%%, want positive (RVSS effect)", tdpS)
	}
}

func TestIntegratorAgreement(t *testing.T) {
	// Trapezoidal and backward Euler must agree on td within a percent.
	p, cp := nominal(t)
	col, err := BuildColumn(p, 32, cp, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := col.MeasureTd(cp, SimOptions{Method: spice.Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	col2, _ := BuildColumn(p, 32, cp, BuildOptions{})
	b, err := col2.MeasureTd(cp, SimOptions{Method: spice.BackwardEuler})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Td-b.Td)/a.Td > 0.02 {
		t.Fatalf("integrators disagree: %g vs %g", a.Td, b.Td)
	}
}

func TestLumpedVsDistributed(t *testing.T) {
	// The lumped ablation must give a td in the same ballpark but not
	// identical (distributed line delays the sense end).
	p, cp := nominal(t)
	colD, _ := BuildColumn(p, 64, cp, BuildOptions{})
	d, err := colD.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	colL, _ := BuildColumn(p, 64, cp, BuildOptions{Lumped: true})
	l, err := colL.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Td-l.Td)/d.Td > 0.25 {
		t.Fatalf("lumped %g vs distributed %g diverge too much", l.Td, d.Td)
	}
}

func TestVssTapOption(t *testing.T) {
	// Double-ended VSS strapping shortens the read slightly.
	p, cp := nominal(t)
	colA, _ := BuildColumn(p, 256, cp, BuildOptions{})
	a, err := colA.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	colB, _ := BuildColumn(p, 256, cp, BuildOptions{VssTapBothEnds: true})
	b, err := colB.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Td >= a.Td {
		t.Fatalf("double-tap td %g not faster than single-tap %g", b.Td, a.Td)
	}
}

// TestTrialFuncRejectsCollapsedDraws: at an LE3 overlay budget wide
// enough to collapse some draws, the SPICE-MC trial rejects exactly the
// draws whose extraction fails and reads the rest.
func TestTrialFuncRejectsCollapsedDraws(t *testing.T) {
	p := tech.N10().WithOL(60e-9)
	b := NewColumnBuilder(p, cm)
	sizes := []int{4}
	nomTd, err := b.NominalTds(sizes, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trial, err := b.TrialFunc(litho.LE3, sizes, nomTd, nil, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	params := litho.Params(p, litho.LE3)
	rng := rand.New(rand.NewSource(0))
	y := make([]float64, len(sizes))
	var rejected, accepted int
	for d := int64(0); d < 16; d++ {
		rng.Seed(d)
		_, extractErr := extract.VarRatios(p, litho.LE3, litho.Draw(params, rng), cm)
		rng.Seed(d)
		if ok := trial(rng, y, nil); ok != (extractErr == nil) {
			t.Fatalf("draw %d: trial ok=%v, extraction error %v", d, ok, extractErr)
		}
		if extractErr != nil {
			rejected++
		} else {
			accepted++
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("%d rejected, %d accepted: the overlay budget must collapse some draws, not all", rejected, accepted)
	}
}

// TestTrialFuncValidatesInputs: a nil capacitance model, an empty size
// list and nominal read times for another number of sizes are refused
// when the trial is built, before any draw.
func TestTrialFuncValidatesInputs(t *testing.T) {
	sizes := []int{4, 8}
	for _, tc := range []struct {
		name  string
		cm    extract.CapModel
		sizes []int
		nomTd []float64
		want  string
	}{
		{"nil cap model", nil, sizes, []float64{1, 1}, "sram: nil capacitance model"},
		{"no sizes", cm, nil, nil, "sram: no array sizes requested"},
		{"nominal count", cm, sizes, []float64{1}, "sram: 1 nominal read times for 2 sizes"},
	} {
		trial, err := NewColumnBuilder(tech.N10(), tc.cm).TrialFunc(litho.EUV, tc.sizes, tc.nomTd, nil, BuildOptions{}, SimOptions{})
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || trial != nil {
			t.Errorf("%s: trial %v, error %v, want prefix %q", tc.name, trial != nil, err, tc.want)
		}
	}
}

func TestCFE(t *testing.T) {
	f := tech.N10().FEOL
	want := f.WPassGate * f.CJPerM
	if math.Abs(CFE(f)-want) > 1e-30 {
		t.Fatalf("CFE = %g, want %g", CFE(f), want)
	}
}

func TestLeakageIsCommonMode(t *testing.T) {
	// Pass-gate leakage droops the floating blb, but differential
	// sensing rejects the common-mode shift: td moves only slightly
	// while the absolute blb level visibly sags.
	p, cp := nominal(t)
	colA, err := BuildColumn(p, 64, cp, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := colA.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	colB, err := BuildColumn(p, 64, cp, BuildOptions{LeakagePerCell: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := colB.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blbLeaky := b.Result.NodeWave(colB.BLBSense)
	last := blbLeaky[len(blbLeaky)-1]
	if last > 0.699 {
		t.Fatalf("blb with leakage should droop below precharge: %g", last)
	}
	if math.Abs(b.Td-a.Td)/a.Td > 0.10 {
		t.Fatalf("leakage shifted td too much: %g vs %g", b.Td, a.Td)
	}
}

func TestAdaptiveReadAgreesWithFixed(t *testing.T) {
	p, cp := nominal(t)
	colF, _ := BuildColumn(p, 64, cp, BuildOptions{})
	fixed, err := colF.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	colA, _ := BuildColumn(p, 64, cp, BuildOptions{})
	adaptive, err := colA.MeasureTd(cp, SimOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(adaptive.Td-fixed.Td)/fixed.Td > 0.03 {
		t.Fatalf("adaptive td %g vs fixed %g", adaptive.Td, fixed.Td)
	}
}
