package extract

import (
	"math"
	"testing"

	"mpsram/internal/litho"
	"mpsram/internal/tech"
	"mpsram/internal/units"
)

// solveNominal is a shared fixture: nominal EUV window at 1 nm grid.
func solveNominal(t *testing.T, p tech.Process) (litho.Window, CapResult) {
	t.Helper()
	var win litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &win); err != nil {
		t.Fatal(err)
	}
	res, err := VictimCaps(p, win, 1e-9, 20000, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	return win, res
}

func TestParallelPlateLimit(t *testing.T) {
	// A very wide wire close to the planes must approach the
	// parallel-plate capacitance 2·ε·w/h (both planes).
	p := tech.N10()
	p.M1.Width = 200e-9
	p.M1.Space = 40e-9
	p.M1.Pitch = p.M1.Width + p.M1.Space
	p.SADP.Period = 2 * p.M1.Pitch
	p.SADP.MandrelWidth = p.M1.Width
	p.SADP.SpacerThk = p.M1.Space
	p.Diel.HBelow, p.Diel.HAbove = 20e-9, 20e-9
	var win litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &win); err != nil {
		t.Fatal(err)
	}
	res, err := VictimCaps(p, win, 2e-9, 30000, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	plate := 2 * p.Diel.Eps() * p.M1.Width / p.Diel.HBelow
	// Fringe and coupling add on top; the plate term must dominate and
	// the total must exceed it by less than ~50 %.
	if res.CTotalPerM < plate || res.CTotalPerM > 1.5*plate {
		t.Fatalf("C = %g, plate = %g (ratio %.2f)", res.CTotalPerM, plate, res.CTotalPerM/plate)
	}
}

func TestChargeConservation(t *testing.T) {
	p := tech.N10()
	var win litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &win); err != nil {
		t.Fatal(err)
	}
	s, err := NewCrossSection(p, win, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	s.Excite(win.Victim)
	s.Solve(20000, 1e-7)
	balance := s.ChargeBalance(len(win.Wires))
	victim := s.ChargePerM(win.Victim)
	if math.Abs(balance) > 0.02*math.Abs(victim) {
		t.Fatalf("charge imbalance %.3g vs victim charge %.3g", balance, victim)
	}
}

func TestFieldVsSakuraiTamaru(t *testing.T) {
	// The S-T closed form assumes an isolated line (full fringe to
	// ground) and then adds full coupling, so in a dense array it
	// overestimates the *absolute* total by a near-constant ~1.45×.
	// That scale factor cancels in the Cvar ratios the study consumes;
	// here we pin the absolute agreement to a 1.2–1.8× band and, in
	// TestSensitivityAgreement below, require the ratios to agree tightly.
	p := tech.N10()
	win, res := solveNominal(t, p)
	st := ExtractVictim(p, win, SakuraiTamaru{})
	ratio := st.CTotalPerM() / res.CTotalPerM
	if ratio < 1.2 || ratio > 1.8 {
		t.Errorf("total: field %.4g vs S-T %.4g (ratio %.2f outside [1.2,1.8])",
			res.CTotalPerM, st.CTotalPerM(), ratio)
	}
	ccField := res.CcPerM[win.Victim-1]
	if !units.ApproxEqual(ccField, st.CcBelowPerM, 0.35, 0) {
		t.Errorf("coupling: field %.4g vs S-T %.4g", ccField, st.CcBelowPerM)
	}
}

// TestSensitivityAgreement is the validation that matters for the paper:
// the capacitance *variation ratio* Cvar predicted by the fast model must
// track the field solver within a few points on the paper's worst cases.
func TestSensitivityAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("field sweeps are slow")
	}
	p := tech.N10()
	cm := SakuraiTamaru{}
	cases := []struct {
		name string
		o    litho.Option
		s    litho.Sample
	}{
		{"EUV+3sigma", litho.EUV, litho.Sample{CDEUV: 3e-9}},
		{"LE3 worst", litho.LE3, litho.Sample{CDA: 3e-9, CDB: 3e-9, CDC: 3e-9, OLB: 8e-9, OLC: -8e-9}},
		{"SADP worst", litho.SADP, litho.Sample{CDCore: -3e-9, CDSpacer: -1.5e-9}},
	}
	for _, c := range cases {
		var nomWin litho.Window
		if err := litho.Realize(&p, c.o, litho.Nominal, &nomWin); err != nil {
			t.Fatal(err)
		}
		var win litho.Window
		if err := litho.Realize(&p, c.o, c.s, &win); err != nil {
			t.Fatal(err)
		}
		fdNom, err := VictimCaps(p, nomWin, 1e-9, 30000, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		fdAct, err := VictimCaps(p, win, 1e-9, 30000, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		cvarFD := fdAct.CTotalPerM / fdNom.CTotalPerM
		cvarST := ExtractVictim(p, win, cm).CTotalPerM() /
			ExtractVictim(p, nomWin, cm).CTotalPerM()
		if math.Abs(cvarFD-cvarST) > 0.06 {
			t.Errorf("%s: Cvar field %.4f vs S-T %.4f", c.name, cvarFD, cvarST)
		}
	}
}

func TestFieldCouplingMonotoneInSpacing(t *testing.T) {
	// Pull the LE3 mask-B comb toward the victim: nearest coupling grows,
	// far-side coupling is (nearly) unchanged.
	p := tech.N10()
	var prev float64
	for i, ol := range []float64{0, 4e-9, 8e-9} {
		var win litho.Window
		if err := litho.Realize(&p, litho.LE3, litho.Sample{OLB: ol}, &win); err != nil {
			t.Fatal(err)
		}
		res, err := VictimCaps(p, win, 1e-9, 20000, 1e-7)
		if err != nil {
			t.Fatal(err)
		}
		cc := res.CcPerM[win.Victim-1]
		if i > 0 && cc <= prev {
			t.Fatalf("coupling not increasing as spacing shrinks: %g -> %g", prev, cc)
		}
		prev = cc
	}
}

func TestFieldSymmetry(t *testing.T) {
	p := tech.N10()
	win, res := solveNominal(t, p)
	below := res.CcPerM[win.Victim-1]
	above := res.CcPerM[win.Victim+1]
	if !units.ApproxEqual(below, above, 0.02, 0) {
		t.Fatalf("symmetric geometry, asymmetric field couplings: %g vs %g", below, above)
	}
	// Planes plus wires absorb (almost) all the victim's charge.
	sum := res.CPlanesPerM
	for i, c := range res.CcPerM {
		if i != win.Victim {
			sum += c
		}
	}
	if !units.ApproxEqual(sum, res.CTotalPerM, 0.02, 0) {
		t.Fatalf("column sum %g vs total %g", sum, res.CTotalPerM)
	}
}

func TestSolverErrors(t *testing.T) {
	p := tech.N10()
	var win litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &win); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCrossSection(p, win, -1); err == nil {
		t.Fatal("negative dx must error")
	}
	if _, err := NewCrossSection(p, win, 100e-9); err == nil {
		t.Fatal("coarse grid that collapses wires must error")
	}
	if _, err := NewCrossSection(p, win, 0.01e-9); err == nil {
		t.Fatal("absurdly fine grid must be rejected")
	}
}

func TestSolveConverges(t *testing.T) {
	p := tech.N10()
	var win litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &win); err != nil {
		t.Fatal(err)
	}
	s, err := NewCrossSection(p, win, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	s.Excite(win.Victim)
	sweeps, resid := s.Solve(20000, 1e-8)
	if sweeps >= 20000 {
		t.Fatalf("SOR did not converge: residual %g", resid)
	}
	// Dielectric potentials are bounded by the excitation.
	for _, v := range s.pot {
		if v < -1e-6 || v > 1+1e-6 {
			t.Fatalf("potential %g outside [0,1]", v)
		}
	}
}

// BenchmarkFieldSolver measures the 2-D Laplace reference at 1 nm grid.
func BenchmarkFieldSolver(b *testing.B) {
	p := tech.N10()
	var win litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &win); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := VictimCaps(p, win, 1e-9, 20000, 1e-7); err != nil {
			b.Fatal(err)
		}
	}
}
