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
// model — both validated against the 2-D finite-difference field solver in
// internal/field.
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
// a homogeneous dielectric between two ground planes.
type CapModel interface {
	// Name identifies the model in reports.
	Name() string
	// GroundPerM returns the wire-to-one-plane capacitance per metre for
	// a wire of width w, thickness t, at distance h from that plane.
	GroundPerM(eps, w, t, h float64) float64
	// CouplingPerM returns the line-to-line capacitance per metre to one
	// neighbour across spacing s (same thickness t, plane distance h).
	CouplingPerM(eps, w, t, s, h float64) float64
}

// SakuraiTamaru is the empirical closed form from T. Sakurai and
// K. Tamaru, "Simple formulas for two- and three-dimensional capacitances"
// (IEEE Trans. Electron Devices, 1983), accurate to ~10 % for
// 0.3 ≤ w/h ≤ 30 and 0.3 ≤ t/h ≤ 10.
type SakuraiTamaru struct{}

// Name implements CapModel.
func (SakuraiTamaru) Name() string { return "sakurai-tamaru" }

// GroundPerM implements CapModel: C/ε = 1.15(w/h) + 2.80(t/h)^0.222.
func (SakuraiTamaru) GroundPerM(eps, w, t, h float64) float64 {
	return eps * (1.15*(w/h) + 2.80*math.Pow(t/h, 0.222))
}

// CouplingPerM implements CapModel:
// C/ε = [0.03(w/h) + 0.83(t/h) − 0.07(t/h)^0.222]·(s/h)^−1.34.
func (SakuraiTamaru) CouplingPerM(eps, w, t, s, h float64) float64 {
	k := 0.03*(w/h) + 0.83*(t/h) - 0.07*math.Pow(t/h, 0.222)
	return eps * k * math.Pow(s/h, -1.34)
}

// PlateFringe is the textbook parallel-plate model with a constant fringe
// term, kept as the crude ablation baseline.
type PlateFringe struct{}

// Name implements CapModel.
func (PlateFringe) Name() string { return "plate-fringe" }

// GroundPerM implements CapModel: plate w/h plus a fringe term that grows
// slowly with sidewall height.
func (PlateFringe) GroundPerM(eps, w, t, h float64) float64 {
	return eps * (w/h + 0.77 + 1.06*math.Pow(t/h, 0.5))
}

// CouplingPerM implements CapModel: sidewall plate t/s plus constant fringe.
func (PlateFringe) CouplingPerM(eps, w, t, s, h float64) float64 {
	_ = w
	return eps * (t/s + 0.6)
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
	taper := m.TaperDeg * math.Pi / 180
	tz := geom.Trapezoid{
		WTop: w,
		WBot: w - 2*m.Thickness*math.Tan(taper),
		T:    m.Thickness,
	}
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

// ExtractWire computes the per-unit-length RC of wire i in window w on
// process p using capacitance model cm. Edge wires (no neighbour on one
// side) get zero coupling on that side.
func ExtractWire(p tech.Process, w litho.Window, i int, cm CapModel) WireRC {
	wire := w.Wires[i]
	width := wire.Width()
	m := metal(p, w)
	d := p.Diel
	eps := d.Eps()
	out := WireRC{
		RPerM: ResistancePerM(m, width),
		CgPerM: cm.GroundPerM(eps, width, m.Thickness, d.HBelow) +
			cm.GroundPerM(eps, width, m.Thickness, d.HAbove),
	}
	hAvg := (d.HBelow + d.HAbove) / 2
	if i > 0 {
		s := wire.Span.Gap(w.Wires[i-1].Span)
		out.CcBelowPerM = cm.CouplingPerM(eps, width, m.Thickness, s, hAvg)
	}
	if i < len(w.Wires)-1 {
		s := wire.Span.Gap(w.Wires[i+1].Span)
		out.CcAbovePerM = cm.CouplingPerM(eps, width, m.Thickness, s, hAvg)
	}
	return out
}

// metal returns the process's metal1 layer at the window's thickness: the
// etch/CMP extension's delta, zero in the paper's experiments.
func metal(p tech.Process, w litho.Window) tech.MetalLayer {
	m := p.M1
	m.Thickness += w.DThk
	return m
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
// extracts the nominal window once; each Ratios call then realizes and
// extracts only the sampled window. A RatioModel is never modified after
// construction, so one value may serve any number of goroutines.
type RatioModel struct {
	proc   tech.Process
	option litho.Option
	cm     CapModel
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
	win, err := litho.Realize(p, o, litho.Nominal)
	if err != nil {
		return RatioModel{}, fmt.Errorf("nominal geometry: %w", err)
	}
	nom := ExtractVictim(p, win, cm)
	return RatioModel{
		proc: p, option: o, cm: cm,
		nomR: nom.RPerM, nomC: nom.CTotalPerM(), nomRvss: vssRPerM(p, win),
	}, nil
}

// Option returns the patterning option the model extracts.
func (m *RatioModel) Option() litho.Option { return m.option }

// Ratios realizes sample s and returns the variability ratios of the
// victim bit line (and the below-victim VSS rail) against the nominal.
func (m *RatioModel) Ratios(s litho.Sample) (Ratios, error) {
	win, err := litho.Realize(m.proc, m.option, s)
	if err != nil {
		return Ratios{}, err
	}
	act := ExtractVictim(m.proc, win, m.cm)
	return Ratios{
		Rvar:    act.RPerM / m.nomR,
		Cvar:    act.CTotalPerM() / m.nomC,
		RvssVar: vssRPerM(m.proc, win) / m.nomRvss,
	}, nil
}

// vssRPerM is the resistance per metre of the VSS rail below the victim:
// ExtractWire's RPerM for that wire, without the capacitances that no
// ratio reads.
func vssRPerM(p tech.Process, w litho.Window) float64 {
	return ResistancePerM(metal(p, w), w.Wires[w.Victim-1].Width())
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
			win, _ := litho.Realize(p, o, s)
			best = WorstCaseResult{Option: o, Corner: c, Sample: s, Ratios: r, Window: win}
			found = true
		}
	}
	if !found {
		return best, fmt.Errorf("option %v: every corner produced invalid geometry", o)
	}
	return best, nil
}
