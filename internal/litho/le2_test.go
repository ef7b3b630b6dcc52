package litho

import (
	"math"
	"testing"

	"mpsram/internal/tech"
)

func TestLE2MaskAlternation(t *testing.T) {
	p := tech.N10()
	var w Window
	if err := Realize(&p, LE2, Nominal, &w); err != nil {
		t.Fatal(err)
	}
	if LE2.String() != "LELE" {
		t.Fatal("LE2 name")
	}
	if w.VictimWire().Mask != MaskA {
		t.Fatalf("victim mask %v", w.VictimWire().Mask)
	}
	if w.Below().Mask != MaskB || w.Above().Mask != MaskB {
		t.Fatalf("neighbour masks %v/%v, want both B", w.Below().Mask, w.Above().Mask)
	}
}

func TestLE2OverlayCancellation(t *testing.T) {
	// The defining LE2 property: one rigid overlay shift moves one
	// neighbour toward the victim and the other away by the same amount,
	// so the gap sum is conserved.
	p := tech.N10()
	for _, ol := range []float64{-6e-9, -2e-9, 2e-9, 6e-9} {
		var w Window
		if err := Realize(&p, LE2, Sample{OLB: ol}, &w); err != nil {
			t.Fatal(err)
		}
		sum := w.GapBelow() + w.GapAbove()
		if math.Abs(sum-2*p.M1.Space) > 1e-15 {
			t.Fatalf("OL=%g: gap sum %g, want %g", ol, sum, 2*p.M1.Space)
		}
		if math.Abs(w.GapBelow()-(p.M1.Space-ol)) > 1e-15 {
			t.Fatalf("OL=%g: gap below %g", ol, w.GapBelow())
		}
	}
}

func TestLE2ParamsAndCorners(t *testing.T) {
	p := tech.N10()
	prm := Params(p, LE2)
	if len(prm) != 3 {
		t.Fatalf("LE2 params %d, want 3 (CD_A, CD_B, OL_B)", len(prm))
	}
	if got := len(Corners(p, LE2)); got != 27 {
		t.Fatalf("LE2 corners %d, want 27", got)
	}
	// AllOptions carries the extension, Options stays the paper's set.
	if len(Options) != 3 || len(AllOptions) != 4 {
		t.Fatal("option sets")
	}
}

func TestLE2CDBehavesLikeLE3CD(t *testing.T) {
	// With zero overlay, CD-only variation on LE2 and LE3 (A and B set
	// equal, C matching B) must realize the same victim geometry.
	p := tech.N10()
	var le2 Window
	if err := Realize(&p, LE2, Sample{CDA: 2e-9, CDB: 1e-9}, &le2); err != nil {
		t.Fatal(err)
	}
	var le3 Window
	if err := Realize(&p, LE3, Sample{CDA: 2e-9, CDB: 1e-9, CDC: 1e-9}, &le3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(le2.VictimWire().Width()-le3.VictimWire().Width()) > 1e-15 {
		t.Fatal("victim widths differ")
	}
	if math.Abs(le2.GapBelow()-le3.GapBelow()) > 1e-15 ||
		math.Abs(le2.GapAbove()-le3.GapAbove()) > 1e-15 {
		t.Fatal("gaps differ")
	}
}
