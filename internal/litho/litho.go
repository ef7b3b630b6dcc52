// Package litho implements behavioural models of the patterning options
// the paper compares on metal1: triple litho-etch (LE3/LELELE),
// self-aligned double patterning (SADP) and single-patterning EUV.
//
// Each engine maps a process-variation sample (per-mask CD biases, per-mask
// overlay shifts, spacer-thickness deltas) to the realized cross-section
// geometry of a window of parallel metal1 tracks centred on the victim bit
// line. The extraction layer then turns that geometry into Rbl/Cbl and the
// variability ratios Rvar/Cvar used by the paper's formula.
//
// LE3: three interleaved masks A, B, C. Each mask carries its own CD bias;
// masks B and C are aligned to mask A (paper Section II-A), so A has no
// overlay term while B and C shift as rigid combs.
//
// SADP: mandrel (core) lines printed on a fixed grid, spacers deposited on
// their sidewalls; the bit lines are the spacer-defined gaps (paper:
// "spacer-defined bit lines"). Core CD and spacer thickness vary; positions
// are self-aligned, so there is no overlay term. Widening the gap line
// necessarily narrows nothing else but consumes the shared period, and the
// complementary core (power) line width moves the opposite way when the
// mandrel CD moves — the Rbl/RVSS anti-correlation of paper Section III-A.
//
// EUV: one exposure, one CD bias common to all lines, no overlay term.
package litho

import (
	"fmt"
	"math/rand"

	"mpsram/internal/geom"
	"mpsram/internal/tech"
)

// Option enumerates the patterning options compared in the paper.
type Option int

const (
	// LE3 is triple litho-etch (LELELE).
	LE3 Option = iota
	// SADP is self-aligned double patterning with spacer-defined bit lines.
	SADP
	// EUV is single-patterning extreme-UV.
	EUV
	// LE2 is double litho-etch (LELE) — an extension beyond the paper's
	// comparison set. With two masks the bit line's neighbours share a
	// mask, so a rigid overlay shift moves one neighbour closer and the
	// other away: the coupling increase partially cancels, unlike LE3
	// where the two independently-shifting masks can both approach.
	LE2
)

// Options lists the patterning options the paper compares, in paper order.
var Options = []Option{LE3, SADP, EUV}

// AllOptions additionally includes the LE2 extension.
var AllOptions = []Option{LE3, SADP, EUV, LE2}

func (o Option) String() string {
	switch o {
	case LE3:
		return "LELELE"
	case SADP:
		return "SADP"
	case EUV:
		return "EUV"
	case LE2:
		return "LELE"
	default:
		return fmt.Sprintf("Option(%d)", int(o))
	}
}

// Mask identifies the patterning step that printed a wire.
type Mask int

const (
	MaskA    Mask = iota // LE3 first exposure (carries the bit line)
	MaskB                // LE3 second exposure
	MaskC                // LE3 third exposure
	MaskCore             // SADP mandrel-defined line
	MaskGap              // SADP spacer-defined line (bit lines)
	MaskEUV              // EUV single exposure
)

func (m Mask) String() string {
	switch m {
	case MaskA:
		return "A"
	case MaskB:
		return "B"
	case MaskC:
		return "C"
	case MaskCore:
		return "core"
	case MaskGap:
		return "gap"
	case MaskEUV:
		return "EUV"
	default:
		return fmt.Sprintf("Mask(%d)", int(m))
	}
}

// Net labels the circuit net a track belongs to.
type Net int

const (
	NetBL Net = iota
	NetBLB
	NetVSS
	NetVDD
)

func (n Net) String() string {
	switch n {
	case NetBL:
		return "BL"
	case NetBLB:
		return "BLB"
	case NetVSS:
		return "VSS"
	case NetVDD:
		return "VDD"
	default:
		return fmt.Sprintf("Net(%d)", int(n))
	}
}

// Sample is one draw of the process-variation parameters, in metres of
// geometry delta. Only the fields relevant to an option are consumed by
// that option's engine:
//
//	LE3:  CDA, CDB, CDC (width deltas), OLB, OLC (overlay shifts)
//	SADP: CDCore (mandrel width delta), CDSpacer (spacer thickness delta)
//	EUV:  CDEUV (width delta, all lines)
type Sample struct {
	CDA, CDB, CDC float64
	OLB, OLC      float64
	CDCore        float64
	CDSpacer      float64
	CDEUV         float64
	// DThk is a global metal-thickness delta (etch/CMP variation), an
	// extension beyond the paper's CD/OL/spacer set: the paper's LPE
	// tool lists layer thickness and CMP among its inputs (Section
	// II-A) but the published experiments do not sweep it. Enabled by
	// setting tech.Variations.Thk3Sigma > 0; applies identically to all
	// patterning options.
	DThk float64
}

// Nominal is the zero-variation sample.
var Nominal = Sample{}

// Wire is one realized track in the cross-section window.
type Wire struct {
	Net  Net
	Mask Mask
	// Span is the cross-array extent [left edge, right edge] in metres.
	Span geom.Interval
}

// Width returns the realized wire width.
func (w Wire) Width() float64 { return w.Span.Width() }

// Window is the realized neighbourhood of the victim bit line: an odd
// number of parallel wires with the victim in the middle. The wires live
// in a fixed-size array, so a realized window is a plain value that never
// touches the heap.
type Window struct {
	Option Option
	Wires  [windowWires]Wire
	Victim int // index of the bit line in Wires
	// DThk carries the sample's global thickness delta through to
	// extraction (zero unless the thickness extension is enabled).
	DThk float64
}

// VictimWire returns the realized bit line.
func (w *Window) VictimWire() Wire { return w.Wires[w.Victim] }

// Below returns the neighbour on the lower-coordinate side of the victim.
func (w *Window) Below() Wire { return w.Wires[w.Victim-1] }

// Above returns the neighbour on the higher-coordinate side of the victim.
func (w *Window) Above() Wire { return w.Wires[w.Victim+1] }

// GapBelow returns the clear spacing between the victim and the wire below.
func (w *Window) GapBelow() float64 { return w.VictimWire().Span.Gap(w.Below().Span) }

// GapAbove returns the clear spacing between the victim and the wire above.
func (w *Window) GapAbove() float64 { return w.VictimWire().Span.Gap(w.Above().Span) }

// Validate reports an error if any wire collapsed (non-positive width) or
// if adjacent wires merged (non-positive spacing). Such geometries are
// catastrophic yield failures, outside the paper's variability study.
func (w *Window) Validate() error {
	for i := range w.Wires {
		wr := &w.Wires[i]
		if wr.Width() <= 0 {
			return fmt.Errorf("%v: wire %d (%v/%v) collapsed to width %.3g",
				w.Option, i, wr.Net, wr.Mask, wr.Width())
		}
		if i > 0 {
			prev := w.Wires[i-1]
			if prev.Span.Hi >= wr.Span.Lo {
				return fmt.Errorf("%v: wires %d and %d merged (gap %.3g)",
					w.Option, i-1, i, wr.Span.Gap(prev.Span))
			}
		}
	}
	return nil
}

// windowHalf is the number of wires on each side of the victim.
const windowHalf = 3

// windowWires is the number of wires in a realized window.
const windowWires = 2*windowHalf + 1

// Realize maps a variation sample to the realized window for the given
// option on process p and writes it into w: 2·windowHalf+1 wires with the
// bit line in the centre. The process and the window are passed by
// pointer so that a trial copies neither. On error w is the zero window.
func Realize(p *tech.Process, o Option, s Sample, w *Window) error {
	w.Option, w.Victim, w.DThk = o, windowHalf, s.DThk
	switch o {
	case LE3:
		realizeLE3(p, s, &w.Wires)
	case SADP:
		realizeSADP(p, s, &w.Wires)
	case EUV:
		realizeEUV(p, s, &w.Wires)
	case LE2:
		realizeLE2(p, s, &w.Wires)
	default:
		*w = Window{}
		return fmt.Errorf("unknown patterning option %d", int(o))
	}
	if s.DThk <= -p.M1.Thickness {
		*w = Window{}
		return fmt.Errorf("%v: thickness delta %.3g collapses the metal", o, s.DThk)
	}
	if err := w.Validate(); err != nil {
		*w = Window{}
		return err
	}
	return nil
}

// le3Nets is the net role by (track index − victim index) modulo the SRAM
// track pattern: the bit line sits between the VSS and VDD rails of the
// cell's power grid (paper Fig. 1b: u/d horizontal M1 bit lines and power).
func trackNet(rel int) Net {
	switch ((rel % 4) + 4) % 4 {
	case 0:
		return NetBL
	case 1:
		return NetVDD
	case 2:
		return NetBLB
	default:
		return NetVSS
	}
}

// realizeLE3 builds the LE3 window: track k sits nominally at k·pitch;
// masks cycle C,B,A,B,C around the victim so that, per the paper's worst
// case, the victim is on mask A with its two neighbours on B (below) and
// C (above). Mask A is the alignment reference: its overlay term is zero.
func realizeLE3(p *tech.Process, s Sample, wires *[windowWires]Wire) {
	pitch := p.M1.Pitch
	w0 := p.M1.Width
	for i := range wires {
		rel := i - windowHalf
		m, cd, ol := MaskA, s.CDA, 0.0
		switch ((rel % 3) + 3) % 3 {
		case 1:
			m, cd, ol = MaskC, s.CDC, s.OLC // above the victim
		case 2:
			m, cd, ol = MaskB, s.CDB, s.OLB // below the victim
		}
		wires[i] = Wire{
			Net:  trackNet(rel),
			Mask: m,
			Span: geom.CenterWidth(float64(rel)*pitch+ol, w0+cd),
		}
	}
}

// realizeSADP builds the SADP window. Core (mandrel-defined) lines sit on
// the fixed SADP period grid; the victim bit line is the spacer-defined gap
// between two cores. Geometry per period (see tech.SADPParams):
//
//	core center k·P, width m' = m+ΔCDcore
//	spacers of thickness t' = t+ΔCDspacer on both core sidewalls
//	gap line filling the remainder: width P − m' − 2t'
func realizeSADP(p *tech.Process, s Sample, wires *[windowWires]Wire) {
	P := p.SADP.Period
	m := p.SADP.MandrelWidth + s.CDCore
	t := p.SADP.SpacerThk + s.CDSpacer
	// Place cores k = −2..1 at −1.5P, −0.5P, +0.5P, +1.5P so the victim
	// gap line is centred at 0. Wires alternate core, gap: the 7-wire
	// window is 4 cores and the 3 gaps between them, and the victim gap
	// (after core k = −1) is index 3.
	for i := range wires {
		k := i/2 - 2
		coreCenter := (float64(k) + 0.5) * P
		if i%2 == 0 {
			wires[i] = Wire{
				Net:  trackNet(2*k + 1),
				Mask: MaskCore,
				Span: geom.CenterWidth(coreCenter, m),
			}
			continue
		}
		// Gap line after this core (between core k and core k+1).
		wires[i] = Wire{
			Net:  trackNet(2*k + 2),
			Mask: MaskGap,
			Span: geom.Interval{Lo: coreCenter + m/2 + t, Hi: coreCenter + P - m/2 - t},
		}
	}
}

// realizeLE2 builds the double litho-etch window: masks alternate A,B with
// the victim on A, both neighbours on B. Mask B is aligned to A, so a
// single overlay term shifts the whole B comb rigidly.
func realizeLE2(p *tech.Process, s Sample, wires *[windowWires]Wire) {
	pitch := p.M1.Pitch
	w0 := p.M1.Width
	for i := range wires {
		rel := i - windowHalf
		m := MaskA
		width := w0 + s.CDA
		center := float64(rel) * pitch
		if ((rel%2)+2)%2 == 1 {
			m = MaskB
			width = w0 + s.CDB
			center += s.OLB
		}
		wires[i] = Wire{
			Net:  trackNet(rel),
			Mask: m,
			Span: geom.CenterWidth(center, width),
		}
	}
}

// realizeEUV builds the single-exposure window: every line carries the same
// CD bias, centres stay on the pitch grid.
func realizeEUV(p *tech.Process, s Sample, wires *[windowWires]Wire) {
	pitch := p.M1.Pitch
	width := p.M1.Width + s.CDEUV
	for i := range wires {
		rel := i - windowHalf
		wires[i] = Wire{
			Net:  trackNet(rel),
			Mask: MaskEUV,
			Span: geom.CenterWidth(float64(rel)*pitch, width),
		}
	}
}

// Param identifies one scalar variation source of an option.
type Param struct {
	Name  string
	Sigma float64 // 1σ amplitude in metres
	field sampleField
}

// sampleField selects the Sample field a Param drives.
type sampleField uint8

const (
	fieldCDA sampleField = iota
	fieldCDB
	fieldCDC
	fieldOLB
	fieldOLC
	fieldCDCore
	fieldCDSpacer
	fieldCDEUV
	fieldDThk
)

// Apply writes a delta d in metres into the sample field the parameter
// drives. It is a plain switch, not a stored func, so a sample it writes
// can stay on the caller's stack.
func (prm Param) Apply(s *Sample, d float64) {
	switch prm.field {
	case fieldCDA:
		s.CDA = d
	case fieldCDB:
		s.CDB = d
	case fieldCDC:
		s.CDC = d
	case fieldOLB:
		s.OLB = d
	case fieldOLC:
		s.OLC = d
	case fieldCDCore:
		s.CDCore = d
	case fieldCDSpacer:
		s.CDSpacer = d
	case fieldCDEUV:
		s.CDEUV = d
	case fieldDThk:
		s.DThk = d
	}
}

// Params returns the independent variation sources for option o on process
// p, with 1σ amplitudes (= published 3σ/3). The LE3 overlay budget comes
// from p.Var.OL3Sigma so callers can sweep it (Table IV). When the
// thickness extension is enabled (Var.Thk3Sigma > 0) every option gains a
// global THK source.
func Params(p tech.Process, o Option) []Param {
	base := baseParams(p, o)
	if base != nil && p.Var.Thk3Sigma > 0 {
		base = append(base, Param{"THK", p.Var.Thk3Sigma / 3, fieldDThk})
	}
	return base
}

// Draw realizes one Gaussian variation sample from params (as returned by
// Params): one NormFloat64 per parameter, scaled by its 1σ amplitude, in
// slice order. This is THE canonical draw — the analytic and
// SPICE-in-the-loop Monte-Carlo paths both consume it, which is what
// makes their per-trial sample streams identical draw for draw; the
// parameter order and draw count are a compatibility surface. The same
// PRNG state maps through each process's own variation budgets, so
// streams are deterministic per (process, option): two nodes consume
// identical normal deviates scaled by their own σ amplitudes. Callers
// build params once per stream; a draw allocates nothing.
func Draw(params []Param, rng *rand.Rand) Sample {
	var s Sample
	for _, prm := range params {
		prm.Apply(&s, rng.NormFloat64()*prm.Sigma)
	}
	return s
}

func baseParams(p tech.Process, o Option) []Param {
	v := p.Var
	switch o {
	case LE3:
		return []Param{
			{"CD_A", v.CD3Sigma / 3, fieldCDA},
			{"CD_B", v.CD3Sigma / 3, fieldCDB},
			{"CD_C", v.CD3Sigma / 3, fieldCDC},
			{"OL_B", v.OL3Sigma / 3, fieldOLB},
			{"OL_C", v.OL3Sigma / 3, fieldOLC},
		}
	case SADP:
		return []Param{
			{"CD_core", v.CD3Sigma / 3, fieldCDCore},
			{"CD_spacer", v.Spacer3Sigma / 3, fieldCDSpacer},
		}
	case EUV:
		return []Param{
			{"CD", v.CD3Sigma / 3, fieldCDEUV},
		}
	case LE2:
		return []Param{
			{"CD_A", v.CD3Sigma / 3, fieldCDA},
			{"CD_B", v.CD3Sigma / 3, fieldCDB},
			{"OL_B", v.OL3Sigma / 3, fieldOLB},
		}
	default:
		return nil
	}
}

// Corner is a worst-case search point: one signed 3σ multiplier per param.
type Corner []int

// Corners enumerates every combination of {−3σ, 0, +3σ} over the option's
// parameters (3^k corners). The paper's worst-case study uses exactly this
// kind of exhaustive corner search over CD and OL errors. The corners
// share one backing array, each capped to its own k entries.
func Corners(p tech.Process, o Option) []Corner {
	k := len(Params(p, o))
	n := 1
	for i := 0; i < k; i++ {
		n *= 3
	}
	corners := make([]Corner, 0, n)
	flat := make([]int, n*k)
	for idx := 0; idx < n; idx++ {
		c := Corner(flat[idx*k : (idx+1)*k : (idx+1)*k])
		x := idx
		for i := 0; i < k; i++ {
			c[i] = x%3 - 1 // −1, 0, +1
			x /= 3
		}
		corners = append(corners, c)
	}
	return corners
}

// CornerSample turns a corner (±1/0 multipliers over params, as returned
// by Params) into a concrete Sample at ±3σ amplitudes.
func CornerSample(params []Param, c Corner) Sample {
	var s Sample
	for i, prm := range params {
		prm.Apply(&s, float64(c[i])*3*prm.Sigma)
	}
	return s
}

// CornerString renders a corner as a compact human-readable tag such as
// "CD_A+3σ CD_B+3σ OL_B−3σ" (zero entries omitted).
func CornerString(p tech.Process, o Option, c Corner) string {
	params := Params(p, o)
	out := ""
	for i, prm := range params {
		if c[i] == 0 {
			continue
		}
		sign := "+"
		if c[i] < 0 {
			sign = "-"
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s%s3σ", prm.Name, sign)
	}
	if out == "" {
		return "nominal"
	}
	return out
}

// Describe returns a short description of a realized window for logging:
// victim width and the two spacings, in nanometres.
func Describe(w Window) string {
	return fmt.Sprintf("%v: w_bl=%.2fnm gap_below=%.2fnm gap_above=%.2fnm",
		w.Option, w.VictimWire().Width()*1e9, w.GapBelow()*1e9, w.GapAbove()*1e9)
}
