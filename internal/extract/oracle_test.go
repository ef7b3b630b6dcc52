package extract

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpsram/internal/geom"
	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

// This file keeps the slice-based window realizers, the per-call closed
// forms and the two-window VarRatios that the fixed-size windows and the
// per-stream RatioModel replaced, verbatim in their arithmetic, as the
// oracle FuzzVarRatios checks the live code against bit for bit. The
// oracle calls none of the extraction code under test. Its closed forms
// and its resistance write each product as float64(x*y), as the live
// code rounds it, so a build that fuses multiply-adds compares the same
// bits.

type oracleWindow struct {
	option litho.Option
	wires  []litho.Wire
	victim int
	dThk   float64
}

func (w oracleWindow) validate() error {
	for i, wr := range w.wires {
		if wr.Width() <= 0 {
			return fmt.Errorf("%v: wire %d (%v/%v) collapsed to width %.3g",
				w.option, i, wr.Net, wr.Mask, wr.Width())
		}
		if i > 0 {
			prev := w.wires[i-1]
			if prev.Span.Hi >= wr.Span.Lo {
				return fmt.Errorf("%v: wires %d and %d merged (gap %.3g)",
					w.option, i-1, i, wr.Span.Gap(prev.Span))
			}
		}
	}
	return nil
}

const oracleHalf = 3

func oracleRealize(p tech.Process, o litho.Option, s litho.Sample) (oracleWindow, error) {
	var w oracleWindow
	switch o {
	case litho.LE3:
		w = oracleLE3(p, s)
	case litho.SADP:
		w = oracleSADP(p, s)
	case litho.EUV:
		w = oracleEUV(p, s)
	case litho.LE2:
		w = oracleLE2(p, s)
	default:
		return oracleWindow{}, fmt.Errorf("unknown patterning option %d", int(o))
	}
	w.dThk = s.DThk
	if s.DThk <= -p.M1.Thickness {
		return oracleWindow{}, fmt.Errorf("%v: thickness delta %.3g collapses the metal", o, s.DThk)
	}
	if err := w.validate(); err != nil {
		return oracleWindow{}, err
	}
	return w, nil
}

func oracleNet(rel int) litho.Net {
	switch ((rel % 4) + 4) % 4 {
	case 0:
		return litho.NetBL
	case 1:
		return litho.NetVDD
	case 2:
		return litho.NetBLB
	default:
		return litho.NetVSS
	}
}

func oracleLE3(p tech.Process, s litho.Sample) oracleWindow {
	pitch := p.M1.Pitch
	w0 := p.M1.Width
	cd := map[litho.Mask]float64{litho.MaskA: s.CDA, litho.MaskB: s.CDB, litho.MaskC: s.CDC}
	ol := map[litho.Mask]float64{litho.MaskA: 0, litho.MaskB: s.OLB, litho.MaskC: s.OLC}
	var wires []litho.Wire
	for rel := -oracleHalf; rel <= oracleHalf; rel++ {
		var m litho.Mask
		switch ((rel % 3) + 3) % 3 {
		case 0:
			m = litho.MaskA
		case 1:
			m = litho.MaskC
		default:
			m = litho.MaskB
		}
		center := float64(rel)*pitch + ol[m]
		width := w0 + cd[m]
		wires = append(wires, litho.Wire{Net: oracleNet(rel), Mask: m, Span: geom.CenterWidth(center, width)})
	}
	return oracleWindow{option: litho.LE3, wires: wires, victim: oracleHalf}
}

func oracleSADP(p tech.Process, s litho.Sample) oracleWindow {
	P := p.SADP.Period
	m := p.SADP.MandrelWidth + s.CDCore
	t := p.SADP.SpacerThk + s.CDSpacer
	var wires []litho.Wire
	for k := -2; k <= 1; k++ {
		coreCenter := (float64(k) + 0.5) * P
		core := litho.Wire{Net: oracleNet(2*k + 1), Mask: litho.MaskCore, Span: geom.CenterWidth(coreCenter, m)}
		gapLo := coreCenter + m/2 + t
		gapHi := coreCenter + P - m/2 - t
		gap := litho.Wire{Net: oracleNet(2*k + 2), Mask: litho.MaskGap, Span: geom.Interval{Lo: gapLo, Hi: gapHi}}
		wires = append(wires, core, gap)
	}
	return oracleWindow{option: litho.SADP, wires: wires[:7], victim: 3}
}

func oracleLE2(p tech.Process, s litho.Sample) oracleWindow {
	pitch := p.M1.Pitch
	w0 := p.M1.Width
	var wires []litho.Wire
	for rel := -oracleHalf; rel <= oracleHalf; rel++ {
		m := litho.MaskA
		width := w0 + s.CDA
		center := float64(rel) * pitch
		if ((rel%2)+2)%2 == 1 {
			m = litho.MaskB
			width = w0 + s.CDB
			center += s.OLB
		}
		wires = append(wires, litho.Wire{Net: oracleNet(rel), Mask: m, Span: geom.CenterWidth(center, width)})
	}
	return oracleWindow{option: litho.LE2, wires: wires, victim: oracleHalf}
}

func oracleEUV(p tech.Process, s litho.Sample) oracleWindow {
	pitch := p.M1.Pitch
	width := p.M1.Width + s.CDEUV
	var wires []litho.Wire
	for rel := -oracleHalf; rel <= oracleHalf; rel++ {
		wires = append(wires, litho.Wire{Net: oracleNet(rel), Mask: litho.MaskEUV, Span: geom.CenterWidth(float64(rel)*pitch, width)})
	}
	return oracleWindow{option: litho.EUV, wires: wires, victim: oracleHalf}
}

// oracleGroundPerM is CapModel.GroundPerM of cm as a single closed form.
func oracleGroundPerM(cm CapModel, eps, w, t, h float64) float64 {
	switch cm.(type) {
	case SakuraiTamaru:
		return eps * (float64(1.15*(w/h)) + float64(2.80*math.Pow(t/h, 0.222)))
	case PlateFringe:
		return eps * (w/h + 0.77 + float64(1.06*math.Pow(t/h, 0.5)))
	}
	panic(fmt.Sprintf("oracle: no closed form for capacitance model %T", cm))
}

// oracleCouplingPerM is CapModel.CouplingPerM of cm as a single closed
// form.
func oracleCouplingPerM(cm CapModel, eps, w, t, s, h float64) float64 {
	switch cm.(type) {
	case SakuraiTamaru:
		k := float64(0.03*(w/h)) + float64(0.83*(t/h)) - float64(0.07*math.Pow(t/h, 0.222))
		return eps * k * math.Pow(s/h, -1.34)
	case PlateFringe:
		return eps * (t/s + 0.6)
	}
	panic(fmt.Sprintf("oracle: no closed form for capacitance model %T", cm))
}

// oracleResistancePerM is ResistancePerM with the trapezoid's area
// written out: the tapered cross-section minus the bottom barrier's
// height and the side barriers' width.
func oracleResistancePerM(m tech.MetalLayer, w float64) float64 {
	taper := m.TaperDeg * math.Pi / 180
	wTop, wBot := w, w-float64(2*m.Thickness*math.Tan(taper))
	cuTop, cuBot, cuT := wTop-2*m.BarrierSide, wBot-2*m.BarrierSide, m.Thickness-m.BarrierBottom
	a := (cuTop + cuBot) / 2 * cuT
	if a <= 0 {
		return math.Inf(1)
	}
	return m.Rho / a
}

func oracleExtractWire(p tech.Process, w oracleWindow, i int, cm CapModel) WireRC {
	wire := w.wires[i]
	width := wire.Width()
	m := p.M1
	m.Thickness += w.dThk
	d := p.Diel
	eps := d.Eps()
	out := WireRC{
		RPerM: oracleResistancePerM(m, width),
		CgPerM: oracleGroundPerM(cm, eps, width, m.Thickness, d.HBelow) +
			oracleGroundPerM(cm, eps, width, m.Thickness, d.HAbove),
	}
	hAvg := (d.HBelow + d.HAbove) / 2
	if i > 0 {
		s := wire.Span.Gap(w.wires[i-1].Span)
		out.CcBelowPerM = oracleCouplingPerM(cm, eps, width, m.Thickness, s, hAvg)
	}
	if i < len(w.wires)-1 {
		s := wire.Span.Gap(w.wires[i+1].Span)
		out.CcAbovePerM = oracleCouplingPerM(cm, eps, width, m.Thickness, s, hAvg)
	}
	return out
}

func oracleVarRatios(p tech.Process, o litho.Option, s litho.Sample, cm CapModel) (Ratios, error) {
	nomWin, err := oracleRealize(p, o, litho.Nominal)
	if err != nil {
		return Ratios{}, fmt.Errorf("nominal geometry: %w", err)
	}
	win, err := oracleRealize(p, o, s)
	if err != nil {
		return Ratios{}, err
	}
	nom := oracleExtractWire(p, nomWin, nomWin.victim, cm)
	act := oracleExtractWire(p, win, win.victim, cm)
	nomVss := oracleExtractWire(p, nomWin, nomWin.victim-1, cm)
	actVss := oracleExtractWire(p, win, win.victim-1, cm)
	return Ratios{
		Rvar:    act.RPerM / nom.RPerM,
		Cvar:    (act.CgPerM + act.CcBelowPerM + act.CcAbovePerM) / (nom.CgPerM + nom.CcBelowPerM + nom.CcAbovePerM),
		RvssVar: actVss.RPerM / nomVss.RPerM,
	}, nil
}

// matchOracle fails t unless the one-shot VarRatios and the reused model
// m give the oracle's ratios for sample s: Float64bits of all three and
// the error text.
func matchOracle(t *testing.T, p tech.Process, o litho.Option, cm CapModel, m *RatioModel, s litho.Sample) {
	t.Helper()
	want, wantErr := oracleVarRatios(p, o, s, cm)
	oneShot, oneShotErr := VarRatios(p, o, s, cm)
	reused, reusedErr := m.Ratios(s)
	for _, got := range []struct {
		name string
		r    Ratios
		err  error
	}{{"VarRatios", oneShot, oneShotErr}, {"RatioModel.Ratios", reused, reusedErr}} {
		if (got.err == nil) != (wantErr == nil) || (wantErr != nil && got.err.Error() != wantErr.Error()) {
			t.Fatalf("%s %v on %s, %+v: error %v, oracle %v", got.name, o, p.Name, s, got.err, wantErr)
		}
		if math.Float64bits(got.r.Rvar) != math.Float64bits(want.Rvar) ||
			math.Float64bits(got.r.Cvar) != math.Float64bits(want.Cvar) ||
			math.Float64bits(got.r.RvssVar) != math.Float64bits(want.RvssVar) {
			t.Fatalf("%s %v on %s, %+v: ratios %+v, oracle %+v", got.name, o, p.Name, s, got.r, want)
		}
	}
}

// FuzzVarRatios proves the one-shot VarRatios and a reused per-stream
// RatioModel bit-identical to the oracle on random samples of every
// option, process and capacitance model: Float64bits of all three ratios
// and the error text must match, including samples that collapse or
// merge wires and thickness deltas at or below −M1.Thickness. A nonzero
// thickness delta makes the model recompute its per-thickness terms; a
// zero one, negative zero included, reuses those computed at
// construction. Sample fields are in nanometres; with floor set, the
// thickness delta is measured from −M1.Thickness instead of from zero.
func FuzzVarRatios(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, false)
	f.Add(uint8(0), uint8(0), uint8(0), 1.2, -0.7, 2.0, 2.5, -3.1, 0.0, 0.0, 0.0, 0.4, false)
	f.Add(uint8(0), uint8(0), uint8(0), 0.0, 0.0, 0.0, 30.0, 0.0, 0.0, 0.0, 0.0, 0.0, false)
	f.Add(uint8(1), uint8(0), uint8(1), 0.0, 0.0, 0.0, 0.0, 0.0, -1.5, 0.8, 0.0, -0.3, false)
	f.Add(uint8(1), uint8(1), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 40.0, 0.0, 0.0, 0.0, false)
	f.Add(uint8(2), uint8(2), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.1, 1.0, false)
	f.Add(uint8(2), uint8(0), uint8(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -60.0, 0.0, false)
	f.Add(uint8(3), uint8(0), uint8(0), 0.9, -1.3, 0.0, 2.2, 0.0, 0.0, 0.0, 0.0, 0.0, false)
	f.Add(uint8(3), uint8(0), uint8(0), 0.0, 0.0, 0.0, -25.0, 0.0, 0.0, 0.0, 0.0, 0.0, false)
	f.Add(uint8(0), uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, true)
	f.Add(uint8(2), uint8(1), uint8(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, -2.0, true)
	f.Add(uint8(1), uint8(2), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-6, true)
	f.Add(uint8(0), uint8(1), uint8(1), 1.2, -0.7, 2.0, 2.5, -3.1, 0.0, 0.0, 0.0, math.Copysign(0, -1), false)
	procs := tech.Default().Processes()
	cms := []CapModel{SakuraiTamaru{}, PlateFringe{}}
	models := map[[3]int]RatioModel{}
	f.Fuzz(func(t *testing.T, opt, proc, capm uint8, cda, cdb, cdc, olb, olc, core, spacer, euv, thk float64, floor bool) {
		in := []float64{cda, cdb, cdc, olb, olc, core, spacer, euv, thk}
		for _, v := range in {
			if !(math.Abs(v) <= 1e3) {
				t.Skip("sample field outside ±1 µm (or NaN)")
			}
		}
		o := litho.AllOptions[int(opt)%len(litho.AllOptions)]
		pi, ci := int(proc)%len(procs), int(capm)%len(cms)
		p, cm := procs[pi], cms[ci]
		s := litho.Sample{
			CDA: cda * 1e-9, CDB: cdb * 1e-9, CDC: cdc * 1e-9,
			OLB: olb * 1e-9, OLC: olc * 1e-9,
			CDCore: core * 1e-9, CDSpacer: spacer * 1e-9,
			CDEUV: euv * 1e-9, DThk: thk * 1e-9,
		}
		if floor {
			s.DThk = -p.M1.Thickness + thk*1e-9
		}
		key := [3]int{int(o), pi, ci}
		m, ok := models[key]
		if !ok {
			var err error
			if m, err = NewRatioModel(p, o, cm); err != nil {
				t.Fatalf("%v on %s: %v", o, p.Name, err)
			}
			models[key] = m
		}
		matchOracle(t, p, o, cm, &m, s)
	})
}

// TestRatiosMatchOracleOnDrawnStreams checks RatioModel.Ratios and
// VarRatios against the oracle, bit for bit, on drawn sample streams:
// 500 canonical draws for every process, option and capacitance model,
// with the thickness source off and at 2 nm, so that go test reaches
// the oracle on more than the fuzz seeds. No draw at these budgets
// collapses the geometry; the fuzz seeds cover the error path.
func TestRatiosMatchOracleOnDrawnStreams(t *testing.T) {
	const draws = 500
	for _, p := range tech.Default().Processes() {
		for _, thk := range []float64{0, 2e-9} {
			p.Var.Thk3Sigma = thk
			for _, o := range litho.AllOptions {
				params := litho.Params(p, o)
				for _, cm := range []CapModel{SakuraiTamaru{}, PlateFringe{}} {
					m, err := NewRatioModel(p, o, cm)
					if err != nil {
						t.Fatalf("%v on %s: %v", o, p.Name, err)
					}
					rng := rand.New(rand.NewSource(2015))
					for i := 0; i < draws; i++ {
						matchOracle(t, p, o, cm, &m, litho.Draw(params, rng))
					}
				}
			}
		}
	}
}
