package spice

import (
	"math"
	"testing"

	"mpsram/internal/circuit"
)

func TestAdaptiveRCDischargeAccuracy(t *testing.T) {
	r, c := 1e3, 1e-12
	tau := r * c
	n, top := rcDischarge(r, c)
	e, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.TransientAdaptive(6*tau, AdaptiveOptions{LTETol: 20e-6}, []circuit.NodeID{top}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wave := res.NodeWave(top)
	// Compare against the analytic exponential at every accepted point.
	for k, tm := range res.T {
		want := math.Exp(-tm / tau)
		if math.Abs(wave[k]-want) > 0.005 {
			t.Fatalf("t=%.3g: V=%.5f want %.5f", tm, wave[k], want)
		}
	}
	// The adaptive run should need far fewer points than the fixed-step
	// run at comparable accuracy (tau/200 · 6tau = 1200 points).
	if len(res.T) > 500 {
		t.Fatalf("adaptive run used %d points", len(res.T))
	}
	if len(res.T) < 10 {
		t.Fatalf("suspiciously few points: %d", len(res.T))
	}
}

func TestAdaptiveMatchesFixedOnThresholdCrossing(t *testing.T) {
	r, c := 2e3, 0.5e-12
	tau := r * c
	n, top := rcDischarge(r, c)
	eFixed, _ := New(n, Options{})
	fixed, err := eFixed.Transient(tau, tau/2000, []circuit.NodeID{top}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fw := fixed.NodeWave(top)
	tdFixed, err := fixed.FirstCrossing(func(k int) float64 { return fw[k] }, 0.9, -1)
	if err != nil {
		t.Fatal(err)
	}
	n2, top2 := rcDischarge(r, c)
	eAd, _ := New(n2, Options{})
	ad, err := eAd.TransientAdaptive(tau, AdaptiveOptions{LTETol: 20e-6}, []circuit.NodeID{top2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	aw := ad.NodeWave(top2)
	tdAd, err := ad.FirstCrossing(func(k int) float64 { return aw[k] }, 0.9, -1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tdAd-tdFixed)/tdFixed > 0.02 {
		t.Fatalf("adaptive td %g vs fixed %g", tdAd, tdFixed)
	}
}

func TestAdaptiveRespectsBreakpoints(t *testing.T) {
	// A pulse that fires late in a long quiet window: without breakpoint
	// clipping a grown step would jump the edge.
	n := circuit.New()
	a := n.Node("a")
	n.AddV("src", a, circuit.Ground, circuit.Pulse{
		V0: 0, V1: 1, Delay: 8e-9, Rise: 0.1e-9, Width: 1,
	})
	n.AddR("r", a, n.Node("b"), 1e3)
	n.AddC("c", n.Node("b"), circuit.Ground, 0.1e-12)
	e, _ := New(n, Options{})
	res, err := e.TransientAdaptive(10e-9, AdaptiveOptions{}, []circuit.NodeID{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One accepted point must land exactly on the pulse delay.
	found := false
	for _, tm := range res.T {
		if math.Abs(tm-8e-9) < 1e-15 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no accepted step on the 8 ns breakpoint (points: %d)", len(res.T))
	}
	// And the edge is resolved: the source value right after the corner.
	wave := res.NodeWave(a)
	if _, err := res.FirstCrossing(func(k int) float64 { return wave[k] }, 0.5, +1); err != nil {
		t.Fatal("pulse edge was skipped")
	}
}

func TestAdaptiveStopFunc(t *testing.T) {
	r, c := 1e3, 1e-12
	n, top := rcDischarge(r, c)
	e, _ := New(n, Options{})
	res, err := e.TransientAdaptive(10e-9, AdaptiveOptions{}, []circuit.NodeID{top},
		func(tm float64, v func(circuit.NodeID) float64) bool { return v(top) < 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	if res.T[len(res.T)-1] > 2e-9 {
		t.Fatalf("stop func ignored: ended at %g", res.T[len(res.T)-1])
	}
}

func TestAdaptiveErrors(t *testing.T) {
	n, _ := rcDischarge(1e3, 1e-12)
	e, _ := New(n, Options{})
	if _, err := e.TransientAdaptive(-1, AdaptiveOptions{}, nil, nil); err == nil {
		t.Fatal("negative window accepted")
	}
	for _, tEnd := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := e.TransientAdaptive(tEnd, AdaptiveOptions{}, nil, nil); err == nil {
			t.Fatalf("window tEnd=%g accepted", tEnd)
		}
	}
	if _, err := e.TransientAdaptive(1e-9, AdaptiveOptions{DtInit: 1e-12, DtMax: 1e-13}, nil, nil); err == nil {
		t.Fatal("inconsistent steps accepted")
	}
}

func TestAdaptiveMOSFETColumnAgreesWithFixed(t *testing.T) {
	// Nonlinear circuit: the inverter-load discharge from the engine
	// tests, adaptive vs fixed.
	build := func() (*Engine, circuit.NodeID) {
		n, top := rcDischarge(5e3, 2e-12)
		e, err := New(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e, top
	}
	eF, top := build()
	fixed, err := eF.Transient(40e-9, 10e-12, []circuit.NodeID{top}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eA, topA := build()
	ad, err := eA.TransientAdaptive(40e-9, AdaptiveOptions{}, []circuit.NodeID{topA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compare final values.
	fv := fixed.NodeWave(top)
	av := ad.NodeWave(topA)
	if math.Abs(fv[len(fv)-1]-av[len(av)-1]) > 0.01 {
		t.Fatalf("final values: fixed %g vs adaptive %g", fv[len(fv)-1], av[len(av)-1])
	}
}

// TestAdaptiveRejectedFirstStepStateIntact is the regression for a
// scratch-reuse aliasing bug: with the state still resident in a Newton
// ping-pong buffer, the third solve of a step-doubling attempt could
// overwrite it, so a rejected first step retried from a corrupted state.
// A first-step rejection needs source movement inside the very first
// attempt without an intervening breakpoint to clip the step, which only
// a ramp starting at t = 0 provides (pulse corners all become
// breakpoints): a PWL drive 1 V → 0 V over one tau, a large initial step
// and a tight LTE bound force the immediate reject-and-retry.
func TestAdaptiveRejectedFirstStepStateIntact(t *testing.T) {
	r, c := 1e3, 1e-12
	tau := r * c
	n := circuit.New()
	drv := n.Node("drv")
	top := n.Node("top")
	n.AddV("src", drv, circuit.Ground, circuit.PWL{T: []float64{0, tau}, V: []float64{1, 0}})
	n.AddR("r", drv, top, r)
	n.AddC("c", top, circuit.Ground, c)
	e, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := AdaptiveOptions{DtInit: tau / 2, DtMax: tau / 2, DtMin: tau / 1e6, LTETol: 2e-6}
	res, err := e.TransientAdaptive(tau, opt, []circuit.NodeID{top}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same circuit on a fine fixed-step backward-Euler
	// grid (the adaptive integrator's own method, so the comparison is
	// integration-error-only).
	n2 := circuit.New()
	drv2 := n2.Node("drv")
	top2 := n2.Node("top")
	n2.AddV("src", drv2, circuit.Ground, circuit.PWL{T: []float64{0, tau}, V: []float64{1, 0}})
	n2.AddR("r", drv2, top2, r)
	n2.AddC("c", top2, circuit.Ground, c)
	eRef, err := New(n2, Options{Method: BackwardEuler})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eRef.Transient(tau, tau/4000, []circuit.NodeID{top2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rw := ref.NodeWave(top2)
	refAt := func(tm float64) float64 {
		k := int(tm / (tau / 4000))
		if k >= len(rw)-1 {
			return rw[len(rw)-1]
		}
		f := tm/(tau/4000) - float64(k)
		return rw[k]*(1-f) + rw[k+1]*f
	}
	wave := res.NodeWave(top)
	for k, tm := range res.T {
		if want := refAt(tm); math.Abs(wave[k]-want) > 0.005 {
			t.Fatalf("t=%.3g: V=%.5f want %.5f (corrupted retry state?)", tm, wave[k], want)
		}
	}
}
