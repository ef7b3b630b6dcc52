// Package device implements the MOSFET compact model used in place of the
// paper's proprietary N10 transistor models: the Sakurai–Newton
// alpha-power law with channel-length modulation and a softplus-smoothed
// overdrive that gives a continuous, differentiable sub-threshold tail —
// essential for Newton–Raphson robustness in the SPICE engine.
//
// The model is deliberately resistive: terminal charge is handled by
// explicit linear capacitors added by the netlist builders (gate,
// junction), which keeps the device evaluation trivially differentiable
// and the simulator simple while preserving everything the read-time
// study needs (saturation current, linear-region resistance, Vdsat).
package device

import (
	"fmt"
	"math"

	"mpsram/internal/tech"
)

// Kind discriminates NMOS from PMOS.
type Kind int

const (
	NMOS Kind = iota
	PMOS
)

func (k Kind) String() string {
	if k == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// MOS is an alpha-power-law transistor card. Width-dependent quantities
// scale linearly with the instance width; K is A/(m·V^Alpha).
type MOS struct {
	Name   string
	Kind   Kind
	Vt     float64 // threshold voltage, V (positive for both kinds)
	Alpha  float64 // velocity-saturation exponent, 1..2
	K      float64 // transconductance per metre of width, A/(m·V^Alpha)
	VdsatK float64 // Vdsat = VdsatK·Vov^(Alpha/2)
	Lambda float64 // channel-length modulation, 1/V
	SubS   float64 // softplus smoothing scale, V (sub-threshold sharpness)

	CGatePerM float64 // total gate capacitance per metre of width
	CJPerM    float64 // source/drain junction capacitance per metre of width
}

// NewNMOS builds the N10 NMOS card from the technology's FEOL constants.
func NewNMOS(f tech.FEOL) *MOS {
	return &MOS{
		Name: "n10_nmos", Kind: NMOS,
		Vt: f.VtN, Alpha: f.AlphaN, K: f.KN, VdsatK: f.VdsatK,
		Lambda: f.Lambda, SubS: 0.035,
		CGatePerM: f.CGatePerM, CJPerM: f.CJPerM,
	}
}

// NewPMOS builds the N10 PMOS card from the technology's FEOL constants.
func NewPMOS(f tech.FEOL) *MOS {
	return &MOS{
		Name: "n10_pmos", Kind: PMOS,
		Vt: f.VtP, Alpha: f.AlphaP, K: f.KP, VdsatK: f.VdsatK,
		Lambda: f.Lambda, SubS: 0.035,
		CGatePerM: f.CGatePerM, CJPerM: f.CJPerM,
	}
}

// Validate rejects non-physical cards.
func (m *MOS) Validate() error {
	if m.Vt <= 0 || m.Alpha < 1 || m.Alpha > 2.5 || m.K <= 0 ||
		m.VdsatK <= 0 || m.Lambda < 0 || m.SubS <= 0 {
		return fmt.Errorf("device %s: non-physical parameters %+v", m.Name, *m)
	}
	return nil
}

// softplus returns s·ln(1+exp(x/s)) and its derivative (the logistic
// function), computed overflow-safely.
func softplus(x, s float64) (val, d float64) {
	u := x / s
	switch {
	case u > 40:
		return x, 1
	case u < -40:
		return 0, 0
	default:
		e := math.Exp(u)
		return s * math.Log1p(e), e / (1 + e)
	}
}

// evalForward evaluates the intrinsic NMOS equations for vds ≥ 0,
// returning the drain current and its partials w.r.t. vgs and vds.
func (m *MOS) evalForward(vgs, vds float64) (id, gm, gds float64) {
	vov, dvov := softplus(vgs-m.Vt, m.SubS)
	if vov <= 0 {
		return 0, 0, 0
	}
	idsat := m.K * math.Pow(vov, m.Alpha) // per metre of width; W applied by caller
	vdsat := m.VdsatK * math.Pow(vov, m.Alpha/2)
	clm := 1 + float64(m.Lambda*vds)
	if vds >= vdsat {
		id = idsat * clm
		gm = m.Alpha / vov * idsat * clm * dvov
		gds = idsat * m.Lambda
		return id, gm, gds
	}
	u := vds / vdsat
	shape := (2 - u) * u
	id = idsat * shape * clm
	// d(id)/d(vov) — see derivation in the package tests: the vdsat(vov)
	// dependence collapses the linear-region derivative to α·u/vov·idsat.
	didvov := idsat * clm * m.Alpha * u / vov
	gm = didvov * dvov
	gds = float64(idsat*clm*(2-2*u)/vdsat) + float64(idsat*shape*m.Lambda)
	return id, gm, gds
}

// Eval returns the drain-to-source current Id (positive into the drain for
// NMOS in forward operation) and the partial derivatives gm = ∂Id/∂Vgs and
// gds = ∂Id/∂Vds for arbitrary terminal voltages, handling source/drain
// swap and PMOS polarity. w is the instance width in metres.
func (m *MOS) Eval(w, vgs, vds float64) (id, gm, gds float64) {
	if m.Kind == PMOS {
		// PMOS: mirror both control voltages; current reverses.
		idn, gmn, gdsn := m.evalNSwap(-vgs, -vds)
		return -w * idn, w * gmn, w * gdsn
	}
	idn, gmn, gdsn := m.evalNSwap(vgs, vds)
	return w * idn, w * gmn, w * gdsn
}

// evalNSwap handles vds < 0 by exchanging source and drain:
// Id(vgs,vds) = −Id(vgd, −vds) with the chain rule applied to the partials.
func (m *MOS) evalNSwap(vgs, vds float64) (id, gm, gds float64) {
	if vds >= 0 {
		return m.evalForward(vgs, vds)
	}
	idf, gmf, gdsf := m.evalForward(vgs-vds, -vds)
	// g(vgs,vds) = −f(vgs−vds, −vds)
	// ∂g/∂vgs = −f₁ ; ∂g/∂vds = f₁ + f₂
	return -idf, -gmf, gmf + gdsf
}

// Idsat returns the saturation current at the given gate overdrive for an
// instance of width w — a convenience for calibration and the analytical
// RFE linearization.
func (m *MOS) Idsat(w, vgs float64) float64 {
	vov, _ := softplus(vgs-m.Vt, m.SubS)
	if vov <= 0 {
		return 0
	}
	return w * m.K * math.Pow(vov, m.Alpha)
}

// Vdsat returns the saturation voltage at the given gate drive.
func (m *MOS) Vdsat(vgs float64) float64 {
	vov, _ := softplus(vgs-m.Vt, m.SubS)
	if vov <= 0 {
		return 0
	}
	return m.VdsatK * math.Pow(vov, m.Alpha/2)
}

// Ron returns the small-signal linear-region resistance at vds→0 for an
// instance of width w at gate voltage vgs: 1/(∂Id/∂Vds at vds=0) =
// Vdsat/(2·Idsat). Used by the analytical model's RFE.
func (m *MOS) Ron(w, vgs float64) float64 {
	idsat := m.Idsat(w, vgs)
	if idsat <= 0 {
		return math.Inf(1)
	}
	return m.Vdsat(vgs) / (2 * idsat)
}
