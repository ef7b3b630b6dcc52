// Static noise margin analysis: butterfly curves of the 6T cell from DC
// sweeps on the SPICE engine, in hold and read configurations. Read SNM
// matters to this study because the same bit lines whose RC variability
// the paper quantifies also clamp the cell's internal node during a read;
// the analysis doubles as an end-to-end exercise of the DC solver.
package sram

import (
	"fmt"
	"math"

	"mpsram/internal/circuit"
	"mpsram/internal/device"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

// SNMResult carries the butterfly analysis outputs.
type SNMResult struct {
	Hold float64 // hold (standby) static noise margin, volts
	Read float64 // read static noise margin, volts
}

// inverterVTC sweeps the input of one 6T half-cell inverter and returns
// the voltage transfer curve. In read mode the output also hangs off a
// pass gate whose far end is clamped to the precharged bit line (vdd),
// which lifts the low output level — the classic read-SNM degradation.
func inverterVTC(p tech.Process, read bool, points int) (vin, vout []float64, err error) {
	if points < 2 {
		return nil, nil, fmt.Errorf("sram: VTC needs ≥2 points")
	}
	f := p.FEOL
	nm := device.NewNMOS(f)
	pm := device.NewPMOS(f)
	for i := 0; i < points; i++ {
		v := f.Vdd * float64(i) / float64(points-1)
		n := circuit.New()
		vdd := n.Node("vdd")
		in := n.Node("in")
		out := n.Node("out")
		n.AddV("vdd", vdd, circuit.Ground, circuit.DC(f.Vdd))
		n.AddV("vin", in, circuit.Ground, circuit.DC(v))
		n.AddM("pu", out, in, vdd, pm, f.WPullUp)
		n.AddM("pd", out, in, circuit.Ground, nm, f.WPullDown)
		if read {
			bl := n.Node("bl")
			wl := n.Node("wl")
			n.AddV("bl", bl, circuit.Ground, circuit.DC(f.Vdd))
			n.AddV("wl", wl, circuit.Ground, circuit.DC(f.Vdd))
			n.AddM("pg", bl, wl, out, nm, f.WPassGate)
		}
		eng, err := spice.New(n, spice.Options{})
		if err != nil {
			return nil, nil, err
		}
		x, err := eng.DCOperatingPoint()
		if err != nil {
			return nil, nil, fmt.Errorf("sram: VTC point %d (vin=%g): %w", i, v, err)
		}
		vin = append(vin, v)
		vout = append(vout, x[int(out)-1])
	}
	return vin, vout, nil
}

// snmFromVTC computes the static noise margin from one inverter VTC using
// the Seevinck noise-voltage-source definition: insert equal adverse
// noise sources in series with both inverter inputs and find, by
// bisection, the largest noise amplitude at which the cross-coupled loop
// map h(x) = f(f(x+vn)+vn) still has two distinct stable fixed points.
// For symmetric cells this equals the butterfly max-square SNM and is
// robust against the fold-back that breaks 45°-rotation implementations
// on steep VTCs.
func snmFromVTC(vin, vout []float64) float64 {
	if len(vin) < 2 {
		return 0
	}
	lo, hi := vin[0], vin[len(vin)-1]
	// Monotone interpolation of the (decreasing) VTC, clamped outside.
	f := func(x float64) float64 {
		if x <= lo {
			return vout[0]
		}
		if x >= hi {
			return vout[len(vout)-1]
		}
		// vin is an ascending uniform-ish grid; binary search.
		a, b := 0, len(vin)-1
		for b-a > 1 {
			m := (a + b) / 2
			if vin[m] <= x {
				a = m
			} else {
				b = m
			}
		}
		t := (x - vin[a]) / (vin[b] - vin[a])
		return vout[a] + float64(t*(vout[b]-vout[a]))
	}
	bistable := func(vn float64) bool {
		h := func(x float64) float64 { return f(f(x+vn) + vn) }
		x1, x2 := lo, hi
		for k := 0; k < 300; k++ {
			x1, x2 = h(x1), h(x2)
		}
		return math.Abs(x1-x2) > 1e-4*(hi-lo)
	}
	if !bistable(0) {
		return 0
	}
	a, b := 0.0, hi-lo
	for k := 0; k < 50; k++ {
		mid := float64((a + b) / 2)
		if bistable(mid) {
			a = mid
		} else {
			b = mid
		}
	}
	return (a + b) / 2
}

// StaticNoiseMargins runs the hold and read butterfly analyses for the
// cell of process p.
func StaticNoiseMargins(p tech.Process) (SNMResult, error) {
	const points = 71
	vinH, voutH, err := inverterVTC(p, false, points)
	if err != nil {
		return SNMResult{}, err
	}
	vinR, voutR, err := inverterVTC(p, true, points)
	if err != nil {
		return SNMResult{}, err
	}
	res := SNMResult{
		Hold: snmFromVTC(vinH, voutH),
		Read: snmFromVTC(vinR, voutR),
	}
	if res.Hold <= 0 || res.Read <= 0 {
		return res, fmt.Errorf("sram: degenerate butterfly (hold=%g read=%g)", res.Hold, res.Read)
	}
	return res, nil
}
