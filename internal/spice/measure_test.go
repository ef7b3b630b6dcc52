package spice

import (
	"testing"

	"mpsram/internal/circuit"
)

// rcPair builds two cascaded RC stages driven by a step, giving two nodes
// with a known stage delay for measurement tests.
func rcPair(t *testing.T) (*Result, circuit.NodeID, circuit.NodeID) {
	t.Helper()
	n := circuit.New()
	drv := n.Node("drv")
	a := n.Node("a")
	b := n.Node("b")
	n.AddV("src", drv, circuit.Ground, circuit.Pulse{V0: 0, V1: 1, Rise: 1e-15, Width: 1})
	n.AddR("r1", drv, a, 1e3)
	n.AddC("c1", a, circuit.Ground, 1e-12)
	n.AddR("r2", a, b, 1e3)
	n.AddC("c2", b, circuit.Ground, 1e-12)
	e, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Transient(20e-9, 2e-12, []circuit.NodeID{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, a, b
}

// TestDelayBetweenNodes measures the stage delay between the two RC
// nodes as the difference of their 50 % rising crossings.
func TestDelayBetweenNodes(t *testing.T) {
	res, a, b := rcPair(t)
	wa, wb := res.NodeWave(a), res.NodeWave(b)
	t0, err := res.FirstCrossing(func(k int) float64 { return wa[k] }, 0.5, +1)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := res.FirstCrossing(func(k int) float64 { return wb[k] }, 0.5, +1)
	if err != nil {
		t.Fatal(err)
	}
	if d := t1 - t0; d <= 0 || d > 5e-9 {
		t.Fatalf("stage delay %g out of band", d)
	}
}
