// Package tech defines the technology description consumed by the
// patterning, extraction and simulation layers: the metal stack, the
// dielectric environment, FEOL electrical constants, SRAM cell geometry,
// the SADP process parameters and the process-variation assumptions.
//
// The shipped N10 preset is calibrated so that the worst-case variability
// algebra of the paper lands in the published bands (see DESIGN.md §4):
// a +3 nm CD on a 26 nm bit line gives ΔRbl = 26/29−1 = −10.34 %, the
// SADP spacer-defined bit line widens to 32 nm in its worst corner
// (ΔRbl ≈ −18.7 %), and the Sakurai–Tamaru coupling law over the
// 22 nm nominal spacing produces ΔCbl in the paper's per-option ordering
// (LE3 ≫ EUV > SADP).
package tech

import (
	"fmt"

	"mpsram/internal/units"
)

// MetalLayer describes one interconnect layer of the BEOL stack.
// All lengths are metres, Rho is ohm·metres.
type MetalLayer struct {
	Name string
	// Pitch is the routing pitch of the layer.
	Pitch float64
	// Width is the drawn (nominal) width of the signal wires studied —
	// for metal1 this is the bit-line CD, deliberately non-minimum.
	Width float64
	// Space is the drawn spacing between adjacent wires.
	Space float64
	// Thickness is the metal height.
	Thickness float64
	// TaperDeg is the sidewall angle from vertical in degrees; a
	// damascene trench is narrower at the bottom: wBot = w − 2·t·tanθ.
	TaperDeg float64
	// BarrierBottom is the thickness of the high-resistivity liner at
	// the trench bottom; it reduces the conducting height uniformly and
	// therefore cancels out of resistance *ratios*.
	BarrierBottom float64
	// BarrierSide is the sidewall liner thickness (zero in the N10
	// preset so that ΔR tracks the drawn CD exactly, as in the paper's
	// Table I; kept as a capability for ablation).
	BarrierSide float64
	// Rho is the effective resistivity including scattering effects.
	Rho float64
}

// Dielectric describes the capacitive environment of a layer: relative
// permittivity and the distances to the conducting planes below and above.
type Dielectric struct {
	EpsR   float64
	HBelow float64
	HAbove float64
}

// Eps returns the absolute permittivity in F/m.
func (d Dielectric) Eps() float64 { return units.Eps0 * d.EpsR }

// SADPParams describes the self-aligned double patterning process used on
// metal1. The repeating period holds one mandrel(core)-defined line and one
// gap (spacer-defined) line; the spaces between lines are the spacers.
//
//	|--core line--|spacer|----gap line----|spacer|  (period repeats)
//	  w = Mandrel    t      P − m − 2t       t
//
// The paper's bit lines are the spacer-defined (gap) lines.
type SADPParams struct {
	Period       float64 // 2× the line pitch
	MandrelWidth float64 // printed core CD (subject to CD variation)
	SpacerThk    float64 // deposited spacer thickness (subject to spacer variation)
}

// GapWidth returns the spacer-defined line width P − m − 2t.
func (s SADPParams) GapWidth() float64 {
	return s.Period - s.MandrelWidth - 2*s.SpacerThk
}

// CellGeom describes the 6T SRAM cell footprint relevant to this study.
type CellGeom struct {
	// XPitch is the cell dimension along the (horizontal) metal1 bit
	// line: the bit-line wire length contributed by one cell.
	XPitch float64
	// YPitch is the cell dimension along the metal2 word line.
	YPitch float64
	// TracksPerCell is the number of M1 tracks crossing one cell.
	TracksPerCell int
}

// FEOL carries the front-end electrical constants used by the device
// models, the SRAM netlist builder and the analytical formula.
type FEOL struct {
	Vdd float64 // supply, precharge and word-line-enable level (paper: 0.7 V)
	// Sense amplifier sensitivity: |Vbl − Vblb| threshold (paper: 0.07 V).
	SenseDeltaV float64

	VtN, VtP       float64 // threshold voltages
	AlphaN, AlphaP float64 // alpha-power saturation exponents
	KN, KP         float64 // transconductance, A/(m·V^alpha)
	VdsatK         float64 // Vdsat = VdsatK·(Vgs−Vt)^(alpha/2)
	Lambda         float64 // channel-length modulation, 1/V

	CGatePerM float64 // gate capacitance per metre of width
	CJPerM    float64 // source/drain junction capacitance per metre of width

	WPassGate float64 // 6T pass-gate width
	WPullDown float64 // 6T pull-down width
	WPullUp   float64 // 6T pull-up width
	LGate     float64 // channel length

	// Precharge PMOS width scales with the horizontal array size n so
	// that drive strength follows the bit-line load (paper assumption):
	// WPre(n) = WPre0 · n / WPreRefN.
	WPre0    float64
	WPreRefN int
	// CPre0 is the fixed (n-independent) precharge/column overhead
	// capacitance on the bit line (sense amp input, column mux, wiring).
	CPre0 float64
}

// WPre returns the precharge device width for an array of n word lines.
// FEOL is large, so its methods take a pointer: a per-trial call copies
// nothing.
func (f *FEOL) WPre(n int) float64 {
	return f.WPre0 * float64(n) / float64(f.WPreRefN)
}

// CPre returns the total n-dependent precharge-side capacitance on one bit
// line: fixed overhead plus the scaled precharge device junction.
func (f *FEOL) CPre(n int) float64 {
	return f.CPre0 + float64(f.WPre(n)*f.CJPerM)
}

// Variations carries the paper's process-variation assumptions (Section
// II-A). All values are 3σ amplitudes in metres.
type Variations struct {
	CD3Sigma     float64 // litho CD variation (LE3 masks, SADP core, EUV): 3 nm
	Spacer3Sigma float64 // SADP spacer thickness variation: 1.5 nm
	OL3Sigma     float64 // LE3 overlay error: 3–8 nm (study sweep)
	// Thk3Sigma enables the metal-thickness (etch/CMP) extension: a
	// global Gaussian thickness variation applied to every option. The
	// paper's tool accepts it as an input but its experiments leave it
	// out, so the preset keeps it at zero.
	Thk3Sigma float64
}

// Process is the complete technology description.
type Process struct {
	Name string
	M1   MetalLayer
	Diel Dielectric
	SADP SADPParams
	Cell CellGeom
	FEOL FEOL
	Var  Variations
}

// N10 returns the calibrated imec-N10-flavoured technology preset used
// throughout the reproduction. See DESIGN.md §4 for the calibration.
func N10() Process {
	nm := units.Nano
	return Process{
		Name: "N10",
		M1: MetalLayer{
			Name:          "metal1",
			Pitch:         48 * nm,
			Width:         26 * nm,
			Space:         22 * nm,
			Thickness:     36 * nm,
			TaperDeg:      0,
			BarrierBottom: 2 * nm,
			BarrierSide:   0,
			Rho:           5.0e-8,
		},
		Diel: Dielectric{EpsR: 2.7, HBelow: 60 * nm, HAbove: 60 * nm},
		SADP: SADPParams{
			Period:       96 * nm,
			MandrelWidth: 26 * nm,
			SpacerThk:    22 * nm,
		},
		Cell: CellGeom{
			XPitch:        110 * nm,
			YPitch:        240 * nm,
			TracksPerCell: 5,
		},
		FEOL: FEOL{
			Vdd:         0.7,
			SenseDeltaV: 0.07,
			VtN:         0.25,
			VtP:         0.25,
			AlphaN:      1.35,
			AlphaP:      1.35,
			KN:          5.0e3,
			KP:          2.4e3,
			VdsatK:      0.55,
			Lambda:      0.08,
			CGatePerM:   1.0e-9,
			CJPerM:      0.8e-9,
			WPassGate:   20 * nm,
			WPullDown:   30 * nm,
			WPullUp:     15 * nm,
			LGate:       18 * nm,
			WPre0:       120 * nm,
			WPreRefN:    16,
			CPre0:       0.40e-15,
		},
		Var: Variations{
			CD3Sigma:     3 * nm,
			Spacer3Sigma: 1.5 * nm,
			OL3Sigma:     8 * nm,
		},
	}
}

// Validate checks internal consistency of the process description and
// returns a descriptive error for the first violated constraint.
func (p Process) Validate() error {
	m := p.M1
	if m.Width <= 0 || m.Space <= 0 || m.Thickness <= 0 {
		return fmt.Errorf("tech %s: %s width/space/thickness must be positive", p.Name, m.Name)
	}
	if !units.ApproxEqual(m.Width+m.Space, m.Pitch, 1e-9, 0) {
		return fmt.Errorf("tech %s: %s width (%v) + space (%v) != pitch (%v)",
			p.Name, m.Name, m.Width, m.Space, m.Pitch)
	}
	if m.Rho <= 0 {
		return fmt.Errorf("tech %s: resistivity must be positive", p.Name)
	}
	if p.Diel.EpsR < 1 {
		return fmt.Errorf("tech %s: relative permittivity %v < 1", p.Name, p.Diel.EpsR)
	}
	if p.Diel.HBelow <= 0 || p.Diel.HAbove <= 0 {
		return fmt.Errorf("tech %s: plane distances must be positive", p.Name)
	}
	if g := p.SADP.GapWidth(); g <= 0 {
		return fmt.Errorf("tech %s: SADP gap width %v must be positive", p.Name, g)
	}
	if !units.ApproxEqual(p.SADP.Period, 2*p.M1.Pitch, 1e-9, 0) {
		return fmt.Errorf("tech %s: SADP period (%v) must be 2× M1 pitch (%v)",
			p.Name, p.SADP.Period, p.M1.Pitch)
	}
	if !units.ApproxEqual(p.SADP.GapWidth(), p.M1.Width, 1e-9, 0) {
		return fmt.Errorf("tech %s: SADP nominal gap width (%v) must equal M1 signal width (%v)",
			p.Name, p.SADP.GapWidth(), p.M1.Width)
	}
	if p.Cell.XPitch <= 0 || p.Cell.YPitch <= 0 {
		return fmt.Errorf("tech %s: cell pitches must be positive", p.Name)
	}
	f := p.FEOL
	if f.Vdd <= 0 || f.SenseDeltaV <= 0 || f.SenseDeltaV >= f.Vdd {
		return fmt.Errorf("tech %s: need 0 < sense ΔV (%v) < Vdd (%v)", p.Name, f.SenseDeltaV, f.Vdd)
	}
	if f.VtN <= 0 || f.VtN >= f.Vdd {
		return fmt.Errorf("tech %s: NMOS Vt (%v) outside (0, Vdd)", p.Name, f.VtN)
	}
	if f.KN <= 0 || f.KP <= 0 || f.AlphaN < 1 || f.AlphaP < 1 {
		return fmt.Errorf("tech %s: implausible transistor parameters", p.Name)
	}
	if f.WPre0 <= 0 || f.WPreRefN <= 0 {
		return fmt.Errorf("tech %s: precharge scaling parameters must be positive", p.Name)
	}
	v := p.Var
	if v.CD3Sigma < 0 || v.Spacer3Sigma < 0 || v.OL3Sigma < 0 {
		return fmt.Errorf("tech %s: variation amplitudes must be non-negative", p.Name)
	}
	return nil
}

// WithOL returns a copy of the process with the LE3 overlay 3σ budget
// replaced, used by the Table IV overlay sweep.
func (p Process) WithOL(ol3sigma float64) Process {
	p.Var.OL3Sigma = ol3sigma
	return p
}
