package extract

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpsram/internal/litho"
	"mpsram/internal/tech"
	"mpsram/internal/units"
)

func TestResistancePerMRectangle(t *testing.T) {
	m := tech.MetalLayer{Thickness: 36e-9, Rho: 3.2e-8}
	// No taper, no barrier: R/L = rho/(w*t).
	w := 26e-9
	want := 3.2e-8 / (w * 36e-9)
	if got := ResistancePerM(m, w); !units.ApproxEqual(got, want, 1e-12, 0) {
		t.Fatalf("R/m = %g, want %g", got, want)
	}
}

func TestResistanceBarrierAndTaper(t *testing.T) {
	m := tech.MetalLayer{Thickness: 36e-9, Rho: 3.2e-8, BarrierBottom: 2e-9}
	w := 26e-9
	want := 3.2e-8 / (w * 34e-9)
	if got := ResistancePerM(m, w); !units.ApproxEqual(got, want, 1e-12, 0) {
		t.Fatalf("bottom barrier: R/m = %g, want %g", got, want)
	}
	// Taper narrows the bottom: resistance must increase.
	mt := m
	mt.TaperDeg = 4
	if ResistancePerM(mt, w) <= ResistancePerM(m, w) {
		t.Fatal("taper must increase resistance")
	}
	// Side barrier increases resistance further.
	ms := m
	ms.BarrierSide = 1.5e-9
	if ResistancePerM(ms, w) <= ResistancePerM(m, w) {
		t.Fatal("side barrier must increase resistance")
	}
	// Collapsed conductor → infinite resistance, not a panic.
	if !math.IsInf(ResistancePerM(m, 0), 1) {
		t.Fatal("zero-width wire must have infinite resistance")
	}
}

func TestResistanceRatioTracksDrawnCD(t *testing.T) {
	// The N10 preset is calibrated so ΔR for +3 nm CD is the pure width
	// ratio 26/29 (paper Table I: −10.36 %).
	m := tech.N10().M1
	r0 := ResistancePerM(m, m.Width)
	r1 := ResistancePerM(m, m.Width+3e-9)
	got := r1/r0 - 1
	want := m.Width/(m.Width+3e-9) - 1
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ΔR = %.4f, want %.4f", got, want)
	}
	if math.Abs(got - -0.1034) > 0.001 {
		t.Fatalf("ΔR = %.4f, want ≈ −10.34 %%", got)
	}
}

func TestCapModelsPositiveAndMonotone(t *testing.T) {
	eps := 2.7 * units.Eps0
	for _, cm := range []CapModel{SakuraiTamaru{}, PlateFringe{}} {
		if cm.Name() == "" {
			t.Fatal("model must have a name")
		}
		cg := cm.GroundPerM(eps, 26e-9, 36e-9, 60e-9)
		if cg <= 0 {
			t.Fatalf("%s: non-positive ground cap", cm.Name())
		}
		// Wider wire → more ground cap.
		if cm.GroundPerM(eps, 30e-9, 36e-9, 60e-9) <= cg {
			t.Fatalf("%s: ground cap not monotone in width", cm.Name())
		}
		// Smaller spacing → more coupling.
		c22 := cm.CouplingPerM(eps, 26e-9, 36e-9, 22e-9, 60e-9)
		c11 := cm.CouplingPerM(eps, 26e-9, 36e-9, 11e-9, 60e-9)
		if !(c11 > c22 && c22 > 0) {
			t.Fatalf("%s: coupling not monotone in spacing: %g vs %g", cm.Name(), c11, c22)
		}
	}
}

func TestCouplingMonotoneProperty(t *testing.T) {
	eps := 2.7 * units.Eps0
	cm := SakuraiTamaru{}
	f := func(a, b float64) bool {
		s1 := 5e-9 + math.Mod(math.Abs(a), 40e-9)
		s2 := 5e-9 + math.Mod(math.Abs(b), 40e-9)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		c1 := cm.CouplingPerM(eps, 26e-9, 36e-9, s1, 60e-9)
		c2 := cm.CouplingPerM(eps, 26e-9, 36e-9, s2, 60e-9)
		return c1 >= c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractVictimSymmetry(t *testing.T) {
	p := tech.N10()
	var w litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &w); err != nil {
		t.Fatal(err)
	}
	rc := ExtractVictim(p, w, SakuraiTamaru{})
	if math.Abs(rc.CcBelowPerM-rc.CcAbovePerM) > 1e-18 {
		t.Fatalf("symmetric geometry, asymmetric coupling: %g vs %g",
			rc.CcBelowPerM, rc.CcAbovePerM)
	}
	if f := (rc.CcBelowPerM + rc.CcAbovePerM) / rc.CTotalPerM(); f <= 0.2 || f >= 0.6 {
		t.Fatalf("coupling fraction %.3f outside the calibrated band", f)
	}
}

func TestEdgeWireHasOneCoupling(t *testing.T) {
	p := tech.N10()
	var w litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &w); err != nil {
		t.Fatal(err)
	}
	first := ExtractWire(p, w, 0, SakuraiTamaru{})
	if first.CcBelowPerM != 0 || first.CcAbovePerM == 0 {
		t.Fatalf("edge wire couplings: %g / %g", first.CcBelowPerM, first.CcAbovePerM)
	}
	last := ExtractWire(p, w, len(w.Wires)-1, SakuraiTamaru{})
	if last.CcAbovePerM != 0 || last.CcBelowPerM == 0 {
		t.Fatalf("edge wire couplings: %g / %g", last.CcBelowPerM, last.CcAbovePerM)
	}
}

func TestPerCellRollup(t *testing.T) {
	p := tech.N10()
	var w litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &w); err != nil {
		t.Fatal(err)
	}
	rc := ExtractVictim(p, w, SakuraiTamaru{})
	cell := PerCell(p, rc)
	if !units.ApproxEqual(cell.Rbl, rc.RPerM*p.Cell.XPitch, 1e-12, 0) {
		t.Fatalf("Rbl rollup: %g", cell.Rbl)
	}
	if !units.ApproxEqual(cell.Cbl, rc.CTotalPerM()*p.Cell.XPitch, 1e-12, 0) {
		t.Fatalf("Cbl rollup: %g", cell.Cbl)
	}
	// Calibration band: a few ohms and a few tens of attofarads per cell.
	if cell.Rbl < 1 || cell.Rbl > 20 {
		t.Fatalf("per-cell Rbl %.3g Ω outside sanity band", cell.Rbl)
	}
	if cell.Cbl < 5e-18 || cell.Cbl > 100e-18 {
		t.Fatalf("per-cell Cbl %.3g F outside sanity band", cell.Cbl)
	}
}

func TestVarRatiosNominalIsUnity(t *testing.T) {
	p := tech.N10()
	for _, o := range litho.Options {
		r, err := VarRatios(p, o, litho.Nominal, SakuraiTamaru{})
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if math.Abs(r.Rvar-1) > 1e-12 || math.Abs(r.Cvar-1) > 1e-12 || math.Abs(r.RvssVar-1) > 1e-12 {
			t.Fatalf("%v: nominal ratios %+v, want unity", o, r)
		}
	}
}

// TestVarRatiosWiderEUVLine: an EUV line drawn 3 nm wider than nominal
// carries more capacitance and less resistance.
func TestVarRatiosWiderEUVLine(t *testing.T) {
	r, err := VarRatios(tech.N10(), litho.EUV, litho.Sample{CDEUV: 3e-9}, SakuraiTamaru{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cvar <= 1 || r.Rvar >= 1 {
		t.Fatalf("ratios %+v", r)
	}
}

// TestVarRatiosAllocationFree pins the one-shot extraction at zero heap
// allocations: the RatioModel it builds is a stack value and both windows
// are fixed-size arrays.
func TestVarRatiosAllocationFree(t *testing.T) {
	p := tech.N10()
	var cm CapModel = SakuraiTamaru{}
	s := litho.Sample{CDA: 1e-9, CDB: -1e-9, CDC: 0.5e-9, OLB: 2e-9, OLC: -1e-9,
		CDCore: 1e-9, CDSpacer: -0.5e-9, CDEUV: 1e-9, DThk: 1e-9}
	for _, o := range litho.AllOptions {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := VarRatios(p, o, s, cm); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: VarRatios allocates %v times per call", o, allocs)
		}
	}
}

func TestVarRatiosErrorPropagation(t *testing.T) {
	p := tech.N10()
	if _, err := VarRatios(p, litho.LE3, litho.Sample{OLB: 30e-9}, SakuraiTamaru{}); err == nil {
		t.Fatal("collapsed geometry must error")
	}
}

// TestWorstCaseTableI is the Table I reproduction gate: worst-case corner
// per option with the paper's ordering and magnitude bands.
func TestWorstCaseTableI(t *testing.T) {
	p := tech.N10()
	cm := SakuraiTamaru{}
	res := map[litho.Option]WorstCaseResult{}
	for _, o := range litho.Options {
		wc, err := WorstCase(p, o, cm)
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		res[o] = wc
	}
	le3, sadp, euv := res[litho.LE3], res[litho.SADP], res[litho.EUV]

	// Ordering: LE3 ≫ EUV > SADP on ΔCbl (paper: 61.56 / 6.65 / 4.01).
	if !(le3.CvarPct() > 3*euv.CvarPct()) {
		t.Errorf("LE3 ΔCbl %.2f%% not ≫ EUV %.2f%%", le3.CvarPct(), euv.CvarPct())
	}
	if !(euv.CvarPct() > sadp.CvarPct()) {
		t.Errorf("EUV ΔCbl %.2f%% not > SADP %.2f%%", euv.CvarPct(), sadp.CvarPct())
	}
	// Magnitude bands.
	if le3.CvarPct() < 35 || le3.CvarPct() > 90 {
		t.Errorf("LE3 ΔCbl %.2f%% outside tens-of-percent band", le3.CvarPct())
	}
	if sadp.CvarPct() <= 0 || sadp.CvarPct() > 10 {
		t.Errorf("SADP ΔCbl %.2f%% outside single-digit band", sadp.CvarPct())
	}
	if euv.CvarPct() <= 0 || euv.CvarPct() > 12 {
		t.Errorf("EUV ΔCbl %.2f%% outside band", euv.CvarPct())
	}
	// Resistance: LE3 and EUV land on the calibrated −10.34 %; SADP is
	// the most negative (paper −18.19 %).
	if math.Abs(le3.RvarPct() - -10.34) > 0.5 || math.Abs(euv.RvarPct() - -10.34) > 0.5 {
		t.Errorf("LE3/EUV ΔRbl %.2f/%.2f %%, want ≈ −10.34 %%", le3.RvarPct(), euv.RvarPct())
	}
	if sadp.RvarPct() > -15 || sadp.RvarPct() < -25 {
		t.Errorf("SADP ΔRbl %.2f%%, want ≈ −18.75 %%", sadp.RvarPct())
	}
	// SADP anti-correlation: VSS rail resistance rises while Rbl falls.
	if sadp.Ratios.RvssVar <= 1 {
		t.Errorf("SADP RVSS ratio %.3f, want > 1 (anti-correlated)", sadp.Ratios.RvssVar)
	}
	// The LE3 worst corner must be the paper's: all CDs +3σ, overlays
	// pulling both neighbours toward the victim.
	s := le3.Sample
	if s.CDA <= 0 || s.CDB <= 0 || s.CDC <= 0 {
		t.Errorf("LE3 worst corner CDs not all +3σ: %+v", s)
	}
	if !(s.OLB > 0 && s.OLC < 0) {
		t.Errorf("LE3 worst corner overlays not both toward victim: %+v", s)
	}
	// SADP worst corner: core −3σ, spacer −3σ (paper Table I).
	if !(sadp.Sample.CDCore < 0 && sadp.Sample.CDSpacer < 0) {
		t.Errorf("SADP worst corner: %+v", sadp.Sample)
	}
}

func TestWorstCaseOverlayBudgetSensitivity(t *testing.T) {
	// Tighter overlay must strictly reduce the LE3 worst-case ΔCbl, and
	// monotonically so over the paper's 3–8 nm sweep.
	cm := SakuraiTamaru{}
	prev := math.Inf(1)
	for _, ol := range []float64{8e-9, 7e-9, 5e-9, 3e-9} {
		wc, err := WorstCase(tech.N10().WithOL(ol), litho.LE3, cm)
		if err != nil {
			t.Fatal(err)
		}
		if wc.CvarPct() >= prev {
			t.Fatalf("ΔCbl not decreasing with OL budget: %.2f at %gnm", wc.CvarPct(), ol*1e9)
		}
		prev = wc.CvarPct()
	}
}

func TestWorstCaseInvalidGeometrySkipped(t *testing.T) {
	// With an absurd overlay budget most LE3 corners merge wires; the
	// search must still return the best *valid* corner.
	p := tech.N10().WithOL(21e-9)
	wc, err := WorstCase(p, litho.LE3, SakuraiTamaru{})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Ratios.Cvar <= 1 {
		t.Fatalf("worst case should still increase Cbl: %+v", wc.Ratios)
	}
}

func TestLE2ExtensionWorstCaseBetweenEUVAndLE3(t *testing.T) {
	// The LE2 extension: same-mask neighbours make overlay partially
	// self-cancelling, so its worst case must land well below LE3's but
	// at or above EUV's (the CD mechanism is shared).
	p := tech.N10()
	cm := SakuraiTamaru{}
	le2, err := WorstCase(p, litho.LE2, cm)
	if err != nil {
		t.Fatal(err)
	}
	le3, _ := WorstCase(p, litho.LE3, cm)
	euv, _ := WorstCase(p, litho.EUV, cm)
	if !(le2.CvarPct() < 0.7*le3.CvarPct()) {
		t.Fatalf("LE2 ΔCbl %.2f%% not well below LE3 %.2f%%", le2.CvarPct(), le3.CvarPct())
	}
	if !(le2.CvarPct() >= euv.CvarPct()-0.5) {
		t.Fatalf("LE2 ΔCbl %.2f%% below EUV %.2f%%", le2.CvarPct(), euv.CvarPct())
	}
}

func TestThicknessExtensionSensitivities(t *testing.T) {
	// Thicker metal: lower resistance (bigger cross-section), higher
	// capacitance (taller sidewalls couple more).
	p := tech.N10()
	r, err := VarRatios(p, litho.EUV, litho.Sample{DThk: 2e-9}, SakuraiTamaru{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rvar >= 1 {
		t.Fatalf("thicker metal must lower R: Rvar=%g", r.Rvar)
	}
	if r.Cvar <= 1 {
		t.Fatalf("thicker metal must raise C: Cvar=%g", r.Cvar)
	}
	// Expected R scaling: conducting height (t−barrier) ratio.
	m := p.M1
	want := (m.Thickness - m.BarrierBottom) / (m.Thickness + 2e-9 - m.BarrierBottom)
	if math.Abs(r.Rvar-want) > 1e-9 {
		t.Fatalf("Rvar %g, want %g", r.Rvar, want)
	}
}

func TestThicknessWidensMCDistribution(t *testing.T) {
	// With the etch/CMP source enabled, the worst-case search over the
	// extra corner axis must find at least as bad a Cbl corner.
	p := tech.N10()
	base, err := WorstCase(p, litho.EUV, SakuraiTamaru{})
	if err != nil {
		t.Fatal(err)
	}
	p.Var.Thk3Sigma = 2e-9
	ext, err := WorstCase(p, litho.EUV, SakuraiTamaru{})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Ratios.Cvar < base.Ratios.Cvar {
		t.Fatalf("extension lost the base worst case: %g vs %g",
			ext.Ratios.Cvar, base.Ratios.Cvar)
	}
	if ext.Sample.DThk <= 0 {
		t.Fatalf("worst Cbl corner should use +3σ thickness: %+v", ext.Sample)
	}
}

// samePow reports whether got and want are the same float64 bits, or
// both NaN.
func samePow(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// TestCouplingPowMatchesPow checks couplingPow against math.Pow(x, −1.34)
// bit for bit: at ±0, the smallest and largest subnormals, the smallest
// normal, 1 and its neighbours, MaxFloat64, ±Inf, NaN and negative x; at
// every process's nominal s/h and on a geometric sweep of s/h from 0.01
// to 100 around them; and at 2^18 random positive bit patterns, which
// span the whole exponent range.
func TestCouplingPowMatchesPow(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), 0x1p-1022,
		1, math.Nextafter(1, 0), math.Nextafter(1, 2),
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		-1, -0.5, -math.SmallestNonzeroFloat64, -0x1p-1022, -math.MaxFloat64,
	}
	for _, p := range tech.Default().Processes() {
		xs = append(xs, (p.M1.Pitch-p.M1.Width)/((p.Diel.HBelow+p.Diel.HAbove)/2))
	}
	for x := 0.01; x < 100; x *= 1.0001 {
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<18; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()>>1))
	}
	for _, x := range xs {
		if got, want := couplingPow(x), math.Pow(x, -1.34); !samePow(got, want) {
			t.Fatalf("couplingPow(%v) = %v (%#x), math.Pow %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzCouplingPow proves couplingPow bit-identical to math.Pow(x, −1.34)
// for any float64 bit pattern; NaN matches any NaN.
func FuzzCouplingPow(f *testing.F) {
	for _, x := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-1022, 0.37, 1, 2.5, math.MaxFloat64, math.Inf(1), math.NaN(), -1} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		if got, want := couplingPow(x), math.Pow(x, -1.34); !samePow(got, want) {
			t.Fatalf("couplingPow(%v) = %v (%#x), math.Pow %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
