// Package extract is the parasitic-extraction substrate of the study — the
// stand-in for the paper's proprietary parameterized LPE tool. It converts
// realized wire geometry (a litho.Window) plus the technology description
// into per-unit-length resistance and capacitance, per-cell bit-line
// parasitics, and the Rvar/Cvar variability ratios consumed by the paper's
// analytical formula and the SPICE-level netlists.
//
// Resistance uses the trapezoidal conductor cross-section minus barrier
// liners. Capacitance offers two closed-form models — the Sakurai–Tamaru
// empirical fit (default) and a cruder parallel-plate + constant-fringe
// model — both validated against the 2-D finite-difference field solver
// that fieldsolver_test.go keeps.
//
// A Monte-Carlo stream extracts thousands of windows of one option on one
// process, and most of the arithmetic depends only on the metal thickness
// and the plane distances: the permittivity, the taper offset and the
// closed forms' powers of t/h. RatioModel computes those terms once, at
// construction; each sample then costs only its widths, its two spacing
// powers and one coupling prefactor. The terms record their model, so a
// sample calls that model's closed forms directly, and each spacing power
// (s/h)^−1.34 has math.Pow's bits (couplingPow). A window that carries a
// thickness delta (the etch/CMP extension) recomputes the terms at its own
// thickness through the same function. GroundPerM and CouplingPerM run
// the same per-sample functions, and every expression keeps the operation
// order of the closed forms, so the results are bit-identical to the
// per-call extraction that oracle_test.go keeps as the reference.
package extract

import (
	"errors"
	"fmt"
	"math"

	"mpsram/internal/geom"
	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

// CapModel computes per-unit-length capacitances of a rectangular wire in
// a homogeneous dielectric between two ground planes. Each model writes
// its closed forms once, split into terms: those that depend only on the
// thickness and the plane distance, and the rest. GroundPerM and
// CouplingPerM compose the two; extraction computes the first kind once
// per thickness. The unexported method keeps the implementations in this
// package.
type CapModel interface {
	// Name identifies the model in reports.
	Name() string
	// GroundPerM returns the wire-to-one-plane capacitance per metre for
	// a wire of width w, thickness t, at distance h from that plane.
	GroundPerM(eps, w, t, h float64) float64
	// CouplingPerM returns the line-to-line capacitance per metre to one
	// neighbour across spacing s (same thickness t, plane distance h).
	CouplingPerM(eps, w, t, s, h float64) float64

	// terms returns the parts of both closed forms that depend only on
	// the thickness t and the plane distance h, tagged with the model
	// whose closed forms ground, couplingPre and coupling evaluate.
	terms(t, h float64) capTerms
}

// capTerms are the parts of a CapModel's closed forms that depend only on
// the metal thickness and one plane distance h. plate records the model
// they belong to, and so which closed form the per-sample functions below
// evaluate.
type capTerms struct {
	plate  bool // PlateFringe's closed forms, not Sakurai–Tamaru's
	h      float64
	ground float64 // GroundPerM's thickness term
	k1, k2 float64 // CouplingPerM's thickness terms (Sakurai–Tamaru)
}

// ground is GroundPerM for a wire of width w, given its terms.
func ground(eps, w float64, k *capTerms) float64 {
	if k.plate {
		return eps * (w/k.h + 0.77 + k.ground)
	}
	return eps * (float64(1.15*(w/k.h)) + k.ground)
}

// couplingPre is the factor of CouplingPerM that does not depend on the
// spacing, shared by both neighbours of a wire of width w.
func couplingPre(eps, w float64, k *capTerms) float64 {
	if k.plate {
		return eps
	}
	return eps * (float64(0.03*(w/k.h)) + k.k1 - k.k2)
}

// coupling is CouplingPerM across spacing s for thickness t, given its
// prefactor.
func coupling(pre, t, s float64, k *capTerms) float64 {
	if k.plate {
		return pre * (t/s + 0.6)
	}
	return pre * couplingPow(s/k.h)
}

// couplingYf is the fractional part of the magnitude of Sakurai–Tamaru's
// spacing exponent −1.34, split off by math.Modf as math.Pow splits it:
// 0.3400000000000001, one ulp above the literal 0.34, which would move
// result bits. The integer part is 1.
var _, couplingYf = math.Modf(1.34)

// couplingPow returns math.Pow(x, −1.34) bit for bit. For a finite,
// positive, normal x it takes math.Pow's own steps without its special
// cases and generic loop: exp(yf·log x) for the fraction, times the
// Frexp mantissa of x once for the integer part 1, then the reciprocal
// scaled by the negated Frexp exponent. Every other x goes to math.Pow.
func couplingPow(x float64) float64 {
	if !(x >= 0x1p-1022 && x <= math.MaxFloat64) {
		return math.Pow(x, -1.34)
	}
	a := math.Exp(couplingYf * math.Log(x))
	m, e := math.Frexp(x)
	return math.Ldexp(1/(a*m), -e)
}

// SakuraiTamaru is the empirical closed form from T. Sakurai and
// K. Tamaru, "Simple formulas for two- and three-dimensional capacitances"
// (IEEE Trans. Electron Devices, 1983), accurate to ~10 % for
// 0.3 ≤ w/h ≤ 30 and 0.3 ≤ t/h ≤ 10.
type SakuraiTamaru struct{}

// Name implements CapModel.
func (SakuraiTamaru) Name() string { return "sakurai-tamaru" }

// GroundPerM implements CapModel: C/ε = 1.15(w/h) + 2.80(t/h)^0.222.
func (m SakuraiTamaru) GroundPerM(eps, w, t, h float64) float64 {
	k := m.terms(t, h)
	return ground(eps, w, &k)
}

// CouplingPerM implements CapModel:
// C/ε = [0.03(w/h) + 0.83(t/h) − 0.07(t/h)^0.222]·(s/h)^−1.34.
func (m SakuraiTamaru) CouplingPerM(eps, w, t, s, h float64) float64 {
	k := m.terms(t, h)
	return coupling(couplingPre(eps, w, &k), t, s, &k)
}

// terms rounds each product on its own, as storing it in thkTerms does,
// so that GroundPerM and CouplingPerM, which inline it, compute the
// kernel's bits on a machine that fuses multiply-adds too.
func (SakuraiTamaru) terms(t, h float64) capTerms {
	p := math.Pow(t/h, 0.222)
	return capTerms{h: h, ground: float64(2.80 * p), k1: float64(0.83 * (t / h)), k2: float64(0.07 * p)}
}

// PlateFringe is the textbook parallel-plate model with a constant fringe
// term, kept as the crude ablation baseline.
type PlateFringe struct{}

// Name implements CapModel.
func (PlateFringe) Name() string { return "plate-fringe" }

// GroundPerM implements CapModel: plate w/h plus a fringe term that grows
// slowly with sidewall height.
func (m PlateFringe) GroundPerM(eps, w, t, h float64) float64 {
	k := m.terms(t, h)
	return ground(eps, w, &k)
}

// CouplingPerM implements CapModel: sidewall plate t/s plus constant fringe.
func (m PlateFringe) CouplingPerM(eps, w, t, s, h float64) float64 {
	k := m.terms(t, h)
	return coupling(couplingPre(eps, w, &k), t, s, &k)
}

// terms rounds its product on its own, as SakuraiTamaru.terms does.
func (PlateFringe) terms(t, h float64) capTerms {
	return capTerms{plate: true, h: h, ground: float64(1.06 * math.Pow(t/h, 0.5))}
}

// WireRC is the per-unit-length extraction result for one wire.
type WireRC struct {
	// RPerM is resistance per metre of wire length.
	RPerM float64
	// CgPerM is the total wire-to-planes (ground) capacitance per metre,
	// both planes summed.
	CgPerM float64
	// CcBelowPerM / CcAbovePerM are the coupling capacitances per metre
	// to the lower/upper neighbour track.
	CcBelowPerM float64
	CcAbovePerM float64
}

// CTotalPerM returns the total capacitance per metre. In the SRAM the bit
// line's neighbours are static power rails, so coupling counts fully
// toward the discharge load.
func (w WireRC) CTotalPerM() float64 {
	return w.CgPerM + w.CcBelowPerM + w.CcAbovePerM
}

// ResistancePerM returns the per-unit-length resistance of a wire of drawn
// width w on metal layer m: trapezoidal cross-section (etch taper), minus
// the bottom and sidewall barrier liners, at the layer's effective
// resistivity.
func ResistancePerM(m tech.MetalLayer, w float64) float64 {
	return resistancePerM(&m, taperOffset(&m), w)
}

// taperOffset is 2·t·tanθ: how much narrower the etched trench of layer m
// is at its bottom than at its top.
func taperOffset(m *tech.MetalLayer) float64 {
	return 2 * m.Thickness * math.Tan(m.TaperDeg*math.Pi/180)
}

// resistancePerM is ResistancePerM given taperOffset(m).
func resistancePerM(m *tech.MetalLayer, taper, w float64) float64 {
	tz := geom.Trapezoid{WTop: w, WBot: w - taper, T: m.Thickness}
	// Bottom barrier eats conducting height; side barrier eats width.
	cu := geom.Trapezoid{
		WTop: tz.WTop - 2*m.BarrierSide,
		WBot: tz.WBot - 2*m.BarrierSide,
		T:    tz.T - m.BarrierBottom,
	}
	a := cu.Area()
	if a <= 0 {
		return math.Inf(1)
	}
	return m.Rho / a
}

// thkTerms are the terms of a wire's extraction that depend only on the
// metal thickness: the metal1 layer at that thickness, its taper offset,
// the permittivity, and the capacitance model's terms at the plane below,
// the plane above and their mean distance (the coupling closed form's h).
type thkTerms struct {
	cm                CapModel
	m                 tech.MetalLayer
	taper, eps        float64
	below, above, avg capTerms
}

// newThkTerms computes the thickness-only terms of process p's metal1 at
// its drawn thickness plus dThk under capacitance model cm.
func newThkTerms(p *tech.Process, dThk float64, cm CapModel) thkTerms {
	k := thkTerms{cm: cm, m: p.M1, eps: p.Diel.Eps()}
	k.m.Thickness += dThk
	t, d := k.m.Thickness, &p.Diel
	k.taper = taperOffset(&k.m)
	k.below = cm.terms(t, d.HBelow)
	k.above = cm.terms(t, d.HAbove)
	k.avg = cm.terms(t, (d.HBelow+d.HAbove)/2)
	return k
}

// wire extracts wire i of window w, computing only the parts that
// depend on the drawn widths and spacings (see ExtractWire).
func (k *thkTerms) wire(w *litho.Window, i int) WireRC {
	wire := &w.Wires[i]
	width := wire.Width()
	out := WireRC{
		RPerM:  resistancePerM(&k.m, k.taper, width),
		CgPerM: ground(k.eps, width, &k.below) + ground(k.eps, width, &k.above),
	}
	pre := couplingPre(k.eps, width, &k.avg)
	if i > 0 {
		out.CcBelowPerM = coupling(pre, k.m.Thickness, wire.Span.Gap(w.Wires[i-1].Span), &k.avg)
	}
	if i < len(w.Wires)-1 {
		out.CcAbovePerM = coupling(pre, k.m.Thickness, wire.Span.Gap(w.Wires[i+1].Span), &k.avg)
	}
	return out
}

// vssRPerM is the resistance per metre of the VSS rail below the victim:
// the RPerM that wire would give for it, without the capacitances that no
// ratio reads.
func (k *thkTerms) vssRPerM(w *litho.Window) float64 {
	return resistancePerM(&k.m, k.taper, w.Wires[w.Victim-1].Width())
}

// ExtractWire computes the per-unit-length RC of wire i in window w on
// process p using capacitance model cm, at the window's thickness. Edge
// wires (no neighbour on one side) get zero coupling on that side.
func ExtractWire(p tech.Process, w litho.Window, i int, cm CapModel) WireRC {
	k := newThkTerms(&p, w.DThk, cm)
	return k.wire(&w, i)
}

// ExtractVictim extracts the bit line of the window.
func ExtractVictim(p tech.Process, w litho.Window, cm CapModel) WireRC {
	return ExtractWire(p, w, w.Victim, cm)
}

// CellRC is the bit-line parasitic contribution of one SRAM cell: the
// per-unit-length victim extraction times the cell pitch along the line.
type CellRC struct {
	Rbl float64 // ohms per cell
	Cbl float64 // farads per cell (ground + both couplings)
}

// PerCell rolls a per-unit-length extraction up to one-cell granularity.
func PerCell(p tech.Process, w WireRC) CellRC {
	l := p.Cell.XPitch
	return CellRC{Rbl: w.RPerM * l, Cbl: w.CTotalPerM() * l}
}

// Ratios are the paper's variability multipliers: actual over nominal.
type Ratios struct {
	Rvar float64 // Rbl(sample)/Rbl(nominal)
	Cvar float64 // Cbl(sample)/Cbl(nominal)
	// RvssVar is the resistance ratio of the adjacent VSS rail — the
	// quantity whose anti-correlation with Rvar the paper blames for the
	// SADP formula/simulation divergence at large arrays.
	RvssVar float64
}

// RatioModel computes the variability ratios of one patterning option on
// one process under one capacitance model. Construction realizes and
// extracts the nominal window once and computes every term of the
// victim's extraction that depends only on the metal thickness and the
// plane distances: the permittivity, the taper offset and the closed
// forms' powers of t/h. Each Ratios call then realizes the sampled
// window and computes only what depends on the draw: the widths, the two
// spacing powers (couplingPow, with math.Pow(s/h, −1.34)'s bits) and the
// coupling prefactor. A window that carries a thickness delta recomputes
// the thickness terms at its own thickness, through the same function.
// Every expression keeps the operation order of the closed forms, so the
// ratios are bit-identical to extracting each window from scratch. A
// RatioModel is never modified after construction, so one value may serve
// any number of goroutines.
type RatioModel struct {
	proc   tech.Process
	option litho.Option
	// nom holds the thickness-only terms at the drawn thickness.
	nom thkTerms
	// nomR, nomC and nomRvss are the nominal victim resistance and total
	// capacitance and the nominal VSS-rail resistance, per metre.
	nomR, nomC, nomRvss float64
}

// NewRatioModel realizes and extracts option o's nominal window on process
// p under capacitance model cm.
func NewRatioModel(p tech.Process, o litho.Option, cm CapModel) (RatioModel, error) {
	if cm == nil {
		return RatioModel{}, errors.New("nil capacitance model")
	}
	var win litho.Window
	if err := litho.Realize(&p, o, litho.Nominal, &win); err != nil {
		return RatioModel{}, fmt.Errorf("nominal geometry: %w", err)
	}
	m := RatioModel{proc: p, option: o, nom: newThkTerms(&p, 0, cm)}
	nom := m.nom.wire(&win, win.Victim)
	m.nomR, m.nomC, m.nomRvss = nom.RPerM, nom.CTotalPerM(), m.nom.vssRPerM(&win)
	return m, nil
}

// Ratios realizes sample s and returns the variability ratios of the
// victim bit line (and the below-victim VSS rail) against the nominal.
func (m *RatioModel) Ratios(s litho.Sample) (Ratios, error) {
	var win litho.Window
	if err := litho.Realize(&m.proc, m.option, s, &win); err != nil {
		return Ratios{}, err
	}
	k := &m.nom
	if win.DThk != 0 {
		thk := newThkTerms(&m.proc, win.DThk, k.cm)
		k = &thk
	}
	act := k.wire(&win, win.Victim)
	return Ratios{
		Rvar:    act.RPerM / m.nomR,
		Cvar:    act.CTotalPerM() / m.nomC,
		RvssVar: k.vssRPerM(&win) / m.nomRvss,
	}, nil
}

// VarRatios realizes the nominal and sampled geometries for option o and
// returns the variability ratios of the victim bit line (and the below-
// victim VSS rail). It is the one-shot form of RatioModel: callers that
// evaluate many samples of one option build the model once instead.
func VarRatios(p tech.Process, o litho.Option, s litho.Sample, cm CapModel) (Ratios, error) {
	m, err := NewRatioModel(p, o, cm)
	if err != nil {
		return Ratios{}, err
	}
	return m.Ratios(s)
}

// WorstCaseResult describes the corner that maximizes the bit-line
// capacitance for one patterning option (the paper's Table I criterion).
type WorstCaseResult struct {
	Option litho.Option
	Corner litho.Corner
	Sample litho.Sample
	Ratios Ratios
	Window litho.Window
}

// CvarPct returns the capacitance impact in percent (paper convention).
func (r WorstCaseResult) CvarPct() float64 { return (r.Ratios.Cvar - 1) * 100 }

// RvarPct returns the resistance impact in percent.
func (r WorstCaseResult) RvarPct() float64 { return (r.Ratios.Rvar - 1) * 100 }

// WorstCase exhaustively searches all ±3σ corners of option o and returns
// the one with maximum Cbl increase. Corners whose geometry collapses
// (merged or vanished lines) are skipped: they are yield, not variability.
func WorstCase(p tech.Process, o litho.Option, cm CapModel) (WorstCaseResult, error) {
	best := WorstCaseResult{Option: o}
	m, err := NewRatioModel(p, o, cm)
	if err != nil {
		return best, fmt.Errorf("option %v: %w", o, err)
	}
	params := litho.Params(p, o)
	found := false
	for _, c := range litho.Corners(p, o) {
		s := litho.CornerSample(params, c)
		r, err := m.Ratios(s)
		if err != nil {
			continue
		}
		if !found || r.Cvar > best.Ratios.Cvar {
			best = WorstCaseResult{Option: o, Corner: c, Sample: s, Ratios: r}
			// Ratios realized s, so this cannot fail.
			_ = litho.Realize(&p, o, s, &best.Window)
			found = true
		}
	}
	if !found {
		return best, fmt.Errorf("option %v: every corner produced invalid geometry", o)
	}
	return best, nil
}
