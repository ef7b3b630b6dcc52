// Package analytic implements the paper's primary contribution: the
// closed-form estimate of the SRAM read time td and its variability
// penalty tdp from the bit-line RC variation and the array size
// (Section III, eq. (1)–(5)).
//
// The model treats the bit line as a lumped RC discharged through the
// front-end path:
//
//	td = a · (n·Rbl·Rvar + RFE) · (n·(Cbl·Cvar + CFE) + Cpre(n))     (4)
//
// with a = −ln(1 − x) the discharge constant for a relative discharge
// level x (eq. (3): a ≈ 0.105 at the paper's 10 % level), n the number of
// cells on the line, Rbl/Cbl the per-cell bit-line parasitics, Rvar/Cvar
// the patterning-induced variation ratios, RFE/CFE the front-end
// resistance and loading, and Cpre(n) the size-scaled precharge
// capacitance. tdp is the ratio td/tdnom − 1.
//
// Expanding (4) in n gives the second-degree polynomial of eq. (5); the
// mixed Rvar·Cvar product in the n² coefficient is what drives tdp
// negative for large arrays when Rvar < 1 (the paper's EUV case), and the
// missing RVSS anti-correlation is why the formula underestimates SADP at
// n > 64 (paper Table III).
//
// The package's tests keep eq. (5)'s coefficients, the n→∞ limit of tdp
// and the Elmore-delay refinement the paper points to as the better
// approximation for the distributed line, and check the formula against
// them.
package analytic

import (
	"fmt"
	"math"

	"mpsram/internal/device"
	"mpsram/internal/tech"
)

// Params carries the formula inputs of eq. (4).
type Params struct {
	A   float64 // discharge constant (eq. 3)
	Rbl float64 // per-cell bit-line resistance, Ω
	Cbl float64 // per-cell bit-line wire capacitance, F
	RFE float64 // front-end (pass-gate + pull-down) discharge resistance, Ω
	CFE float64 // per-cell front-end loading on the bit line, F
	// CPre returns the precharge-side capacitance for array size n.
	CPre func(n int) float64
}

// DischargeConstant returns a = −ln(1−x) for a relative discharge level x
// (paper eq. (3): x = 0.1 ⇒ a ≈ 0.105).
func DischargeConstant(level float64) float64 {
	return -math.Log(1 - level)
}

// Derive builds the formula parameters from the technology description and
// the extracted per-cell bit-line parasitics. RFE is the series on
// resistance of the pass-gate and pull-down devices at full drive; CFE is
// the off pass-gate junction loading; the discharge level is the
// sense-amplifier sensitivity relative to the precharge voltage.
func Derive(p tech.Process, cellRbl, cellCbl float64) (Params, error) {
	if cellRbl <= 0 || cellCbl <= 0 {
		return Params{}, fmt.Errorf("analytic: non-positive cell parasitics R=%g C=%g", cellRbl, cellCbl)
	}
	f := p.FEOL
	nmos := device.NewNMOS(f)
	rfe := nmos.Ron(f.WPassGate, f.Vdd) + nmos.Ron(f.WPullDown, f.Vdd)
	level := f.SenseDeltaV / f.Vdd
	if level <= 0 || level >= 1 {
		return Params{}, fmt.Errorf("analytic: discharge level %g outside (0,1)", level)
	}
	return Params{
		A:    DischargeConstant(level),
		Rbl:  cellRbl,
		Cbl:  cellCbl,
		RFE:  rfe,
		CFE:  f.WPassGate * f.CJPerM,
		CPre: f.CPre,
	}, nil
}

// Td evaluates eq. (4) for array size n and variation ratios rvar, cvar.
func (m Params) Td(n int, rvar, cvar float64) float64 {
	nn := float64(n)
	r := nn*m.Rbl*rvar + m.RFE
	c := nn*(m.Cbl*cvar+m.CFE) + m.CPre(n)
	return m.A * r * c
}

// TdNom is eq. (4) at unity variation.
func (m Params) TdNom(n int) float64 { return m.Td(n, 1, 1) }

// TdpPct returns the read-time penalty in percent: (td/tdnom − 1)·100.
func (m Params) TdpPct(n int, rvar, cvar float64) float64 {
	return (m.Td(n, rvar, cvar)/m.TdNom(n) - 1) * 100
}

// Validate sanity-checks the parameter set.
func (m Params) Validate() error {
	if m.A <= 0 || m.Rbl <= 0 || m.Cbl <= 0 || m.RFE <= 0 || m.CFE < 0 {
		return fmt.Errorf("analytic: non-physical parameters %+v", m)
	}
	if m.CPre == nil {
		return fmt.Errorf("analytic: missing CPre scaling")
	}
	if m.CPre(16) < 0 || m.CPre(1024) < m.CPre(16) {
		return fmt.Errorf("analytic: CPre must be non-negative and non-decreasing")
	}
	return nil
}
