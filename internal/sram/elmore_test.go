package sram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpsram/internal/circuit"
	"mpsram/internal/spice"
)

func TestSingleRC(t *testing.T) {
	// One segment: τ = Rs·C + r·C.
	tr := NewTree(100, 0)
	n, err := tr.Add(0, 50, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	tau := tr.ElmoreDelays()
	want := 100*1e-12 + 50*1e-12
	if math.Abs(tau[n]-want) > 1e-24 {
		t.Fatalf("tau = %g, want %g", tau[n], want)
	}
	if tr.N() != 2 || tr.TotalCap() != 1e-12 {
		t.Fatal("bookkeeping")
	}
}

func TestLadderMatchesClosedForm(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64, 1024} {
		tr, end, err := BuildLadder(7e3, 0.1e-15, n, 6.2, 40e-18, 0.8e-15)
		if err != nil {
			t.Fatal(err)
		}
		tau := tr.ElmoreDelays()[end]
		want := LadderElmoreClosedForm(7e3, 0.1e-15, n, 6.2, 40e-18, 0.8e-15)
		if math.Abs(tau-want) > 1e-9*want {
			t.Fatalf("n=%d: tree %g vs closed form %g", n, tau, want)
		}
	}
}

func TestElmoreAdditivityProperty(t *testing.T) {
	// Elmore delay is monotone along any root-to-leaf path and additive
	// over path segments.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree(rng.Float64()*1e3, rng.Float64()*1e-15)
		// Random tree of ~30 nodes.
		for i := 0; i < 30; i++ {
			parent := rng.Intn(tr.N())
			if _, err := tr.Add(parent, rng.Float64()*100, rng.Float64()*1e-15); err != nil {
				return false
			}
		}
		tau := tr.ElmoreDelays()
		for i := 1; i < tr.N(); i++ {
			if tau[i] < tau[tr.parent[i]]-1e-24 {
				return false // must not decrease toward the leaves
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBranchingVsChainDownstreamCap(t *testing.T) {
	// Two children hanging off the root see only their own subtree's C in
	// their own R, but the source R sees everything.
	tr := NewTree(1e3, 0)
	a, _ := tr.Add(0, 100, 1e-15)
	b, _ := tr.Add(0, 100, 2e-15)
	tau := tr.ElmoreDelays()
	wantA := 1e3*3e-15 + 100*1e-15
	wantB := 1e3*3e-15 + 100*2e-15
	if math.Abs(tau[a]-wantA) > 1e-24 || math.Abs(tau[b]-wantB) > 1e-24 {
		t.Fatalf("tau = %v, want %g/%g", tau, wantA, wantB)
	}
}

func TestDelayToLevelAndBounds(t *testing.T) {
	tr, end, _ := BuildLadder(1e3, 0, 8, 10, 1e-15, 0)
	d10, err := tr.DelayToLevel(end, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tau := tr.ElmoreDelays()[end]
	if math.Abs(d10- -math.Log(0.9)*tau) > 1e-24 {
		t.Fatal("DelayToLevel formula")
	}
	lo, hi, err := tr.Bounds(end)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi && lo > 0) {
		t.Fatalf("bounds %g/%g", lo, hi)
	}
	// Errors.
	if _, err := tr.DelayToLevel(99, 0.1); err == nil {
		t.Fatal("bad node accepted")
	}
	if _, err := tr.DelayToLevel(end, 1.5); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, _, err := tr.Bounds(-1); err == nil {
		t.Fatal("bad node accepted")
	}
	if _, err := tr.Add(99, 1, 1); err == nil {
		t.Fatal("bad parent accepted")
	}
	if _, err := tr.Add(0, -1, 1); err == nil {
		t.Fatal("negative R accepted")
	}
	if err := tr.AddCap(99, 1); err != nil {
	} else {
		t.Fatal("bad AddCap node accepted")
	}
	if _, _, err := BuildLadder(1, 0, 0, 1, 1, 1); err == nil {
		t.Fatal("zero-segment ladder accepted")
	}
}

// TestElmoreBracketsSpice cross-validates against the SPICE engine: the
// simulated 50 % step delay of a driven RC ladder must fall within the
// Elmore bounds, and the 10 % delay must be near the single-pole estimate.
func TestElmoreBracketsSpice(t *testing.T) {
	rs, n, rSeg, cSeg := 2e3, 16, 50.0, 2e-15
	tr, end, _ := BuildLadder(rs, 0, n, rSeg, cSeg, 0)
	lo, hi, _ := tr.Bounds(end)

	// Build the same ladder in the circuit model, driven by a step.
	ckt := circuit.New()
	drv := ckt.Node("drv")
	ckt.AddV("src", drv, circuit.Ground, circuit.Pulse{V0: 0, V1: 1, Rise: 1e-15, Width: 1})
	prev := drv
	var probe circuit.NodeID
	ckt.AddR("rs", drv, ckt.Node("n0"), rs)
	prev = ckt.Node("n0")
	ckt.AddC("c0", prev, circuit.Ground, 1e-18) // driving-point parasitic
	for i := 0; i < n; i++ {
		nd := ckt.Node(nodeName(i))
		ckt.AddR("r", prev, nd, rSeg)
		ckt.AddC("c", nd, circuit.Ground, cSeg)
		prev = nd
		probe = nd
	}
	eng, err := spice.New(ckt, spice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tau := tr.ElmoreDelays()[end]
	res, err := eng.Transient(8*tau, tau/2000, []circuit.NodeID{probe}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wave := res.NodeWave(probe)
	t50, err := res.FirstCrossing(func(k int) float64 { return wave[k] }, 0.5, +1)
	if err != nil {
		t.Fatal(err)
	}
	if t50 < lo || t50 > hi {
		t.Fatalf("simulated 50%% delay %g outside Elmore bounds [%g, %g]", t50, lo, hi)
	}
	// 10 % crossing vs single-pole estimate: same order, within 2.5×
	// (the ladder's early response is faster than single-pole).
	t10, err := res.FirstCrossing(func(k int) float64 { return wave[k] }, 0.1, +1)
	if err != nil {
		t.Fatal(err)
	}
	est, _ := tr.DelayToLevel(end, 0.1)
	if t10 > est*2.5 || t10 < est/6 {
		t.Fatalf("10%% delay %g vs estimate %g out of band", t10, est)
	}
}

// BenchmarkElmoreLadder measures the RC-tree Elmore sweep at the largest
// DOE bit line.
func BenchmarkElmoreLadder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, end, err := BuildLadder(7e3, 0.4e-15, 1024, 6.2, 40e-18, 6e-15)
		if err != nil {
			b.Fatal(err)
		}
		tau := tr.ElmoreDelays()
		_ = tau[end]
	}
}

func nodeName(i int) string {
	return "lad" + string(rune('a'+i%26)) + string(rune('a'+i/26))
}
