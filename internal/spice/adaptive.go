// Adaptive transient integration: backward-Euler with step-doubling local
// error control and source-breakpoint clipping. The read waveforms of
// this study spend most of their span in slow quasi-linear discharge, so
// adapting the step wins large factors over the fixed-step loop while the
// error estimate keeps the threshold-crossing accuracy.
package spice

import (
	"fmt"
	"math"
	"sort"

	"mpsram/internal/circuit"
)

// AdaptiveOptions tunes TransientAdaptive.
type AdaptiveOptions struct {
	// DtInit is the first step (default tEnd/1e4).
	DtInit float64
	// DtMin is the smallest allowed step; when reached the step is
	// accepted regardless of the error estimate (default DtInit/100).
	DtMin float64
	// DtMax caps the step (default tEnd/50).
	DtMax float64
	// LTETol is the per-step local error tolerance in volts
	// (default 100 µV).
	LTETol float64
}

func (o AdaptiveOptions) withDefaults(tEnd float64) AdaptiveOptions {
	if o.DtInit == 0 {
		o.DtInit = tEnd / 1e4
	}
	if o.DtMin == 0 {
		o.DtMin = o.DtInit / 100
	}
	if o.DtMax == 0 {
		o.DtMax = tEnd / 50
	}
	if o.LTETol == 0 {
		o.LTETol = 100e-6
	}
	return o
}

// breakpoints appends to dst[:0] the time points where pulse sources
// have corners; steps are clipped so no corner is jumped over.
func (e *Engine) breakpoints(dst []float64, tEnd float64) []float64 {
	bps := dst[:0]
	add := func(t float64) {
		if t > 0 && t < tEnd {
			bps = append(bps, t)
		}
	}
	collect := func(w circuit.Waveform) {
		switch p := w.(type) {
		case circuit.Pulse:
			add(p.Delay)
			add(p.Delay + p.Rise)
			add(p.Delay + p.Rise + p.Width)
			add(p.Delay + p.Rise + p.Width + p.Fall)
		case circuit.PWL:
			for _, t := range p.T {
				add(t)
			}
		}
	}
	for _, v := range e.ckt.Vs {
		collect(v.Wave)
	}
	for _, i := range e.ckt.Is {
		collect(i.Wave)
	}
	sort.Float64s(bps)
	return bps
}

// beStep advances the state x at time t by h with one backward-Euler
// solve (no trapezoidal state involved, which is what makes step-doubling
// safe here) and writes the result to dst. The base matrix reuses the
// DC-stage scratch (the operating point is long done by the time stepping
// starts); the result is copied out of the engine's Newton buffers
// because step-doubling holds three solutions live at once.
func (e *Engine) beStep(dst, x []float64, t, h float64) error {
	e.dcBase = grow(e.dcBase, len(e.static))
	m := e.dcBase
	copy(m, e.static)
	rhs := e.rhsBuf()
	e.sourceRHS(rhs, t+h)
	for ci, c := range e.ckt.Cs {
		g := c.C / h
		stampG(m, e.topo.cs[4*ci:], g)
		vPrev := vAt(x, c.A) - vAt(x, c.B)
		rhsI(rhs, c.A, c.B, g*vPrev)
	}
	sol, err := e.newtonSolve(m, rhs, x)
	if err != nil {
		return err
	}
	copy(dst, sol)
	return nil
}

// TransientAdaptive integrates from 0 to tEnd with backward Euler under
// step-doubling error control: each step h is also taken as two h/2
// sub-steps; the difference is the local error estimate. On acceptance
// the more accurate two-half-step solution is kept (local extrapolation).
func (e *Engine) TransientAdaptive(tEnd float64, opt AdaptiveOptions, probes []circuit.NodeID, stop StopFunc) (*Result, error) {
	if tEnd <= 0 {
		return nil, fmt.Errorf("spice: bad adaptive window tEnd=%g", tEnd)
	}
	o := opt.withDefaults(tEnd)
	if o.DtMin <= 0 || o.DtInit < o.DtMin || o.DtMax < o.DtInit {
		return nil, fmt.Errorf("spice: inconsistent adaptive steps init=%g min=%g max=%g",
			o.DtInit, o.DtMin, o.DtMax)
	}
	xDC, err := e.DCOperatingPoint()
	if err != nil {
		return nil, err
	}
	// Detach the state from the engine's ping-pong Newton buffers: the
	// step-doubling loop holds x live across three beStep solves, and a
	// buffer-resident x would be silently overwritten by the third solve
	// (its x0 is already a detached copy, so solutionBuf could hand back
	// the buffer still holding x — corrupting the retry state of a
	// rejected step). x, the full step x1, the half step xh and the
	// composite x2 each get one of the engine's adaptive buffers.
	for i := range e.adapt {
		e.adapt[i] = grow(e.adapt[i], e.n)
	}
	x, x1, xh, x2 := e.adapt[0], e.adapt[1], e.adapt[2], e.adapt[3]
	copy(x, xDC)
	e.bps = e.breakpoints(e.bps, tEnd)
	bps := e.bps
	res := &Result{Nodes: probes, V: make([][]float64, len(probes))}
	record := func(t float64, x []float64) {
		res.T = append(res.T, t)
		for i, p := range probes {
			res.V[i] = append(res.V[i], vAt(x, p))
		}
	}
	record(0, x)
	probe := func(id circuit.NodeID) float64 { return vAt(x, id) }
	t := 0.0
	h := o.DtInit
	bpIdx := 0
	for t < tEnd {
		// Clip to the next source corner and the window end.
		for bpIdx < len(bps) && bps[bpIdx] <= t+1e-21 {
			bpIdx++
		}
		hEff := h
		if bpIdx < len(bps) && t+hEff > bps[bpIdx] {
			hEff = bps[bpIdx] - t
		}
		if t+hEff > tEnd {
			hEff = tEnd - t
		}
		if hEff < o.DtMin {
			hEff = math.Min(o.DtMin, tEnd-t)
		}
		// Full step and two half steps.
		if err := e.beStep(x1, x, t, hEff); err != nil {
			return nil, fmt.Errorf("spice: adaptive step at t=%g: %w", t, err)
		}
		if err := e.beStep(xh, x, t, hEff/2); err != nil {
			return nil, err
		}
		if err := e.beStep(x2, xh, t+hEff/2, hEff/2); err != nil {
			return nil, err
		}
		errEst := 0.0
		for i := range x1 {
			if d := math.Abs(x1[i] - x2[i]); d > errEst {
				errEst = d
			}
		}
		if errEst > o.LTETol && hEff > o.DtMin {
			// Reject and retry with a smaller step.
			h = math.Max(hEff/2, o.DtMin)
			continue
		}
		// Accept the more accurate composite solution; the old state's
		// buffer takes the next composite.
		x, x2 = x2, x
		t += hEff
		record(t, x)
		if stop != nil && stop(t, probe) {
			break
		}
		// Grow the step toward the tolerance (BE is first order:
		// err ∝ h², for the doubled estimate — use a conservative
		// square-root controller with a 1.5× growth cap).
		if errEst > 0 {
			f := 0.9 * math.Sqrt(o.LTETol/errEst)
			if f > 1.5 {
				f = 1.5
			}
			if f < 0.3 {
				f = 0.3
			}
			h = hEff * f
		} else {
			h = hEff * 1.5
		}
		if h > o.DtMax {
			h = o.DtMax
		}
		if h < o.DtMin {
			h = o.DtMin
		}
	}
	return res, nil
}
