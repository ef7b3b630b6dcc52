package litho

import (
	"math"
	"math/rand"
	"testing"

	"mpsram/internal/tech"
)

func TestThicknessExtensionOffByDefault(t *testing.T) {
	p := tech.N10()
	if p.Var.Thk3Sigma != 0 {
		t.Fatal("preset must keep the thickness extension disabled")
	}
	for _, o := range AllOptions {
		for _, prm := range Params(p, o) {
			if prm.Name == "THK" {
				t.Fatalf("%v: THK param present with extension disabled", o)
			}
		}
	}
}

func TestThicknessExtensionAddsParam(t *testing.T) {
	p := tech.N10()
	p.Var.Thk3Sigma = 2e-9
	for _, o := range AllOptions {
		found := false
		for _, prm := range Params(p, o) {
			if prm.Name == "THK" {
				found = true
				if math.Abs(prm.Sigma-2e-9/3) > 1e-18 {
					t.Fatalf("%v: THK sigma %g", o, prm.Sigma)
				}
			}
		}
		if !found {
			t.Fatalf("%v: THK param missing", o)
		}
	}
	// Unknown options still return nil.
	if Params(p, Option(42)) != nil {
		t.Fatal("unknown option grew params")
	}
}

func TestThicknessPropagatesToWindow(t *testing.T) {
	p := tech.N10()
	var w Window
	if err := Realize(&p, EUV, Sample{DThk: 1.5e-9}, &w); err != nil {
		t.Fatal(err)
	}
	if w.DThk != 1.5e-9 {
		t.Fatalf("window DThk %g", w.DThk)
	}
	// Collapsing thickness is rejected.
	if err := Realize(&p, EUV, Sample{DThk: -p.M1.Thickness}, &w); err == nil {
		t.Fatal("metal collapse accepted")
	}
}

// TestDrawAndRealizeAllocationFree pins the closure-free draw and the
// fixed-size window at zero heap allocations, on every option with the
// thickness source on (the longest parameter list).
func TestDrawAndRealizeAllocationFree(t *testing.T) {
	p := tech.N10()
	p.Var.Thk3Sigma = 2e-9
	rng := rand.New(rand.NewSource(1))
	for _, o := range AllOptions {
		params := Params(p, o)
		var s Sample
		if allocs := testing.AllocsPerRun(50, func() { s = Draw(params, rng) }); allocs != 0 {
			t.Errorf("%v: Draw allocates %v times per draw", o, allocs)
		}
		allocs := testing.AllocsPerRun(50, func() {
			var w Window
			if err := Realize(&p, o, s, &w); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: Realize allocates %v times per window", o, allocs)
		}
	}
}
