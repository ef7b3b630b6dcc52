package sram

import (
	"fmt"
	"math"
	"testing"

	"mpsram/internal/circuit"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

// firstCrossingOn runs FirstCrossing's rising test at threshold thr on the
// differential d over steps 0..last, at times t, and returns the crossing
// time's bits or the error text.
func firstCrossingOn(t, d []float64, last int, thr float64) string {
	r := &spice.Result{T: t[:last+1]}
	x, err := r.FirstCrossing(func(k int) float64 { return d[k] }, thr, +1)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%#016x", math.Float64bits(x))
}

// TestReadStopKeepsFirstCrossing: on synthetic sense differentials,
// FirstCrossing gives the same bits, or the same error text, on a run cut
// by readStop as on one cut at the first step at 1.5× the threshold (the
// stop reads used before readStop), and the readStop cut never comes
// later. Step 0 is recorded but never shown to the stop, as in a
// transient.
func TestReadStopKeepsFirstCrossing(t *testing.T) {
	const thr = 0.07
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		d    []float64
	}{
		{"rising", []float64{0, 0.01, 0.03, 0.05, 0.069, 0.071, 0.09, 0.11}},
		{"lands on the threshold", []float64{0, 0.03, 0.07, 0.09, 0.2}},
		{"NaN steps", []float64{0, nan, 0.08, 0.02, nan, 0.09, 0.03, 0.08, 0.2}},
		{"NaN at step 0", []float64{nan, 0.08, 0.02, 0.08, 0.2}},
		{"NaN from step 1", []float64{0, nan, nan, nan}},
		{"step 0 at the threshold", []float64{0.07, 0.08, 0.02, 0.08, 0.2}},
		{"step 0 over 1.5×", []float64{0.2, 0.3, 0.05, 0.08, 0.11}},
		{"step 0 over, past 1.5×, re-crossing", []float64{0.08, 0.2, 0.05, 0.08, 0.09}},
		{"step 0 over, never crossing", []float64{0.08, 0.09, 0.1}},
		{"step 0 over, then past 1.5×", []float64{0.08, 0.2, 0.3}},
		{"crossing on step 1", []float64{0, 0.08, 0.09, 0.2}},
		{"crossing on step 1, dip, re-crossing", []float64{0, 0.08, 0.06, 0.09, 0.2}},
		{"jump past 1.5× in one step", []float64{0, 0.03, 0.2, 0.3}},
		{"dip and re-crossing", []float64{0, 0.03, 0.08, 0.06, 0.09, 0.2}},
		{"no crossing", []float64{0, 0.01, 0.02, 0.03}},
		{"only step 0", []float64{0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := make([]float64, len(tc.d))
			for k := range ts {
				ts[k] = float64(k)*0.37e-12 + 1e-15
			}
			last := len(tc.d) - 1
			cut15, cut := last, last
			for k := 1; k <= last; k++ {
				if tc.d[k] >= 1.5*thr {
					cut15 = k
					break
				}
			}
			s := newReadStop(thr)
			for k := 1; k <= last; k++ {
				if s.done(tc.d[k]) {
					cut = k
					break
				}
			}
			if cut > cut15 {
				t.Errorf("readStop ends on step %d, after the 1.5× cut on step %d", cut, cut15)
			}
			want := firstCrossingOn(ts, tc.d, cut15, thr)
			if got := firstCrossingOn(ts, tc.d, cut, thr); got != want {
				t.Errorf("cut on step %d: FirstCrossing gives %s; cut at 1.5× on step %d: %s",
					cut, got, cut15, want)
			}
		})
	}
}

// fullWindowTd is the read as it was before readStop: measureTdOn's
// window, nodeset and probes on a fresh engine, but the transient runs on
// to the first step at 1.5× the sense threshold. td and its errors come
// from the same FirstCrossing and wrapping.
func fullWindowTd(c *Column, cp CellParasitics, opt SimOptions) (float64, error) {
	f := c.proc.FEOL
	eng, err := spice.New(c.Netlist, spice.Options{Method: opt.Method})
	if err != nil {
		return 0, err
	}
	tEnd := opt.TEnd
	if tEnd == 0 {
		tEnd = float64(6*c.estimateTd(cp)) + 50e-12
	}
	dt := opt.Dt
	if dt == 0 {
		dt = math.Min(tEnd/6000, 0.5e-12)
	}
	eng.SetNodeset(map[circuit.NodeID]float64{c.Q: 0, c.QB: f.Vdd})
	probes := []circuit.NodeID{c.BLSense, c.BLBSense, c.BLFar, c.Q, c.QB, c.WL}
	target := f.SenseDeltaV
	stopAt := func(t float64, v func(circuit.NodeID) float64) bool {
		return v(c.BLBSense)-v(c.BLSense) >= 1.5*target
	}
	var res *spice.Result
	if opt.Adaptive {
		res, err = eng.TransientAdaptive(tEnd, spice.AdaptiveOptions{LTETol: 50e-6}, probes, stopAt)
	} else {
		res, err = eng.Transient(tEnd, dt, probes, stopAt)
	}
	if err != nil {
		return 0, fmt.Errorf("sram: read transient (n=%d): %w", c.N, err)
	}
	bl, blb := res.NodeWave(c.BLSense), res.NodeWave(c.BLBSense)
	tCross, err := res.FirstCrossing(func(k int) float64 { return blb[k] - bl[k] }, target, +1)
	if err != nil {
		return 0, fmt.Errorf("sram: sense threshold never reached (n=%d, tEnd=%g): %w", c.N, tEnd, err)
	}
	if td := tCross - 1e-12; td >= 0 {
		return td, nil
	}
	return tCross, nil
}

// readCase is one real read: a column size and its parasitics under one
// integrator.
type readCase struct {
	name string
	n    int
	cp   CellParasitics
	sopt SimOptions
}

// readCases lists the reads TestReadStopsOnCrossingStep runs on N10: the
// nominal, each option's worst corner and one Monte-Carlo draw per
// option, at n = 16, 64 and 1024, on the trapezoidal, backward-Euler and
// adaptive integrators, plus per integrator a window too short for the
// crossing, which fails.
func readCases(t *testing.T) []readCase {
	t.Helper()
	p := tech.N10()
	b := NewColumnBuilder(p, cm)
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		name string
		cp   CellParasitics
	}
	cps := []named{{"nominal", nom}}
	for oi, o := range litho.Options {
		wc, err := extract.WorstCase(p, o, cm)
		if err != nil {
			t.Fatal(err)
		}
		cps = append(cps,
			named{fmt.Sprintf("%v worst corner", o), nom.Scale(wc.Ratios)},
			named{fmt.Sprintf("%v draw", o), doeDraw(t, b, o, int64(2015+oi))})
	}
	var cases []readCase
	for _, m := range []struct {
		name string
		sopt SimOptions
	}{
		{"trapezoidal", SimOptions{Method: spice.Trapezoidal}},
		{"backward Euler", SimOptions{Method: spice.BackwardEuler}},
		{"adaptive", SimOptions{Adaptive: true}},
	} {
		for _, n := range []int{16, 64, 1024} {
			for _, c := range cps {
				cases = append(cases, readCase{fmt.Sprintf("%s/n=%d/%s", m.name, n, c.name), n, c.cp, m.sopt})
			}
		}
		short := m.sopt
		short.TEnd = 3e-12
		cases = append(cases, readCase{m.name + "/n=16/nominal, 3 ps window", 16, nom, short})
	}
	return cases
}

// TestReadStopsOnCrossingStep: every read of readCases returns the same
// td bits, or the same error text, as the read that runs on to the 1.5×
// step, and every read that crosses ends on the step FirstCrossing
// reports: the crossing is found on the whole waveform and not on the
// waveform without its last step. ColumnBuilder.MeasureTd reads through
// the same measureTdOn, and TestColumnBuilderMatchesOneShotPath holds it
// to Column.MeasureTd's bits.
func TestReadStopsOnCrossingStep(t *testing.T) {
	p := tech.N10()
	thr := p.FEOL.SenseDeltaV
	outcome := func(td float64, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%#016x", math.Float64bits(td))
	}
	crosses := 0
	for _, rc := range readCases(t) {
		col, err := BuildColumn(p, rc.n, rc.cp, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := outcome(fullWindowTd(col, rc.cp, rc.sopt))
		rr, err := col.MeasureTd(rc.cp, rc.sopt)
		if got := outcome(rr.Td, err); got != want {
			t.Errorf("%s: td %s, the full-window read's %s", rc.name, got, want)
		}
		if err != nil {
			continue
		}
		crosses++
		res := rr.Result
		bl, blb := res.NodeWave(col.BLSense), res.NodeWave(col.BLBSense)
		d := func(k int) float64 { return blb[k] - bl[k] }
		before := &spice.Result{T: res.T[:len(res.T)-1]}
		if x, err := before.FirstCrossing(d, thr, +1); err == nil {
			t.Errorf("%s: the crossing at %g s is recorded before the last of %d steps", rc.name, x, len(res.T))
		}
	}
	if crosses == 0 {
		t.Fatal("no read crossed the threshold")
	}
}

// TestMeasureTdRefusesReadsThatCannotEnd: parasitics that size an endless
// or unbounded read window are refused with an error, before any
// transient runs: an infinite or NaN bit-line resistance, a NaN bit-line
// capacitance, and a finite resistance so large that the window would
// need more steps than a transient may take.
func TestMeasureTdRefusesReadsThatCannotEnd(t *testing.T) {
	b := NewColumnBuilder(tech.N10(), cm)
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cp   CellParasitics
	}{
		{"Rbl +Inf", CellParasitics{Rbl: math.Inf(1), Cbl: nom.Cbl, Rvss: nom.Rvss}},
		{"Rbl 1e30", CellParasitics{Rbl: 1e30, Cbl: nom.Cbl, Rvss: nom.Rvss}},
		{"Rbl NaN", CellParasitics{Rbl: math.NaN(), Cbl: nom.Cbl, Rvss: nom.Rvss}},
		{"Cbl NaN", CellParasitics{Rbl: nom.Rbl, Cbl: math.NaN(), Rvss: nom.Rvss}},
	} {
		if td, err := b.MeasureTd(64, tc.cp, BuildOptions{}, SimOptions{}); err == nil {
			t.Errorf("%s: read returned td %g, want an error", tc.name, td)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}
