package litho

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpsram/internal/tech"
)

func TestOptionStrings(t *testing.T) {
	if LE3.String() != "LELELE" || SADP.String() != "SADP" || EUV.String() != "EUV" {
		t.Fatal("option names diverge from the paper's")
	}
	if Option(99).String() == "" || Mask(99).String() == "" || Net(99).String() == "" {
		t.Fatal("unknown enum values must still render")
	}
}

func TestNominalGeometryIdenticalAcrossOptions(t *testing.T) {
	p := tech.N10()
	for _, o := range Options {
		var w Window
		if err := Realize(&p, o, Nominal, &w); err != nil {
			t.Fatalf("%v nominal: %v", o, err)
		}
		v := w.VictimWire()
		if v.Net != NetBL {
			t.Fatalf("%v: victim net = %v, want BL", o, v.Net)
		}
		if math.Abs(v.Width()-p.M1.Width) > 1e-15 {
			t.Errorf("%v: nominal victim width %g, want %g", o, v.Width(), p.M1.Width)
		}
		if math.Abs(w.GapBelow()-p.M1.Space) > 1e-15 ||
			math.Abs(w.GapAbove()-p.M1.Space) > 1e-15 {
			t.Errorf("%v: nominal gaps %g/%g, want %g", o, w.GapBelow(), w.GapAbove(), p.M1.Space)
		}
		if c := (v.Span.Lo + v.Span.Hi) / 2; math.Abs(c) > 1e-15 {
			t.Errorf("%v: victim not centred at 0: %g", o, c)
		}
	}
}

func TestLE3MaskAssignment(t *testing.T) {
	p := tech.N10()
	var w Window
	if err := Realize(&p, LE3, Nominal, &w); err != nil {
		t.Fatal(err)
	}
	if w.VictimWire().Mask != MaskA {
		t.Fatalf("victim mask = %v, want A (paper: B and C aligned to A)", w.VictimWire().Mask)
	}
	if w.Below().Mask != MaskB || w.Above().Mask != MaskC {
		t.Fatalf("neighbour masks = %v/%v, want B/C", w.Below().Mask, w.Above().Mask)
	}
}

func TestLE3OverlayMovesOnlyItsMask(t *testing.T) {
	p := tech.N10()
	s := Sample{OLB: 5e-9}
	var w Window
	if err := Realize(&p, LE3, s, &w); err != nil {
		t.Fatal(err)
	}
	// Mask A (victim) stays put; mask B moves as a rigid comb.
	if v := w.VictimWire().Span; math.Abs((v.Lo+v.Hi)/2) > 1e-15 {
		t.Fatal("overlay on B moved the mask-A victim")
	}
	if b := w.Below().Span; math.Abs((b.Lo+b.Hi)/2-(-p.M1.Pitch+5e-9)) > 1e-15 {
		t.Fatalf("mask B centre = %g", (b.Lo+b.Hi)/2)
	}
	// The gap below shrinks by exactly the overlay, the gap above is
	// untouched.
	if math.Abs(w.GapBelow()-(p.M1.Space-5e-9)) > 1e-15 {
		t.Fatalf("gap below = %g", w.GapBelow())
	}
	if math.Abs(w.GapAbove()-p.M1.Space) > 1e-15 {
		t.Fatalf("gap above = %g", w.GapAbove())
	}
}

func TestLE3CDAffectsAllLinesOfMask(t *testing.T) {
	p := tech.N10()
	var w Window
	if err := Realize(&p, LE3, Sample{CDA: 3e-9}, &w); err != nil {
		t.Fatal(err)
	}
	for i, wr := range w.Wires {
		want := p.M1.Width
		if wr.Mask == MaskA {
			want += 3e-9
		}
		if math.Abs(wr.Width()-want) > 1e-15 {
			t.Fatalf("wire %d (%v) width %g, want %g", i, wr.Mask, wr.Width(), want)
		}
	}
}

func TestSADPSelfAlignment(t *testing.T) {
	p := tech.N10()
	// The victim is spacer-defined: its spacing to both neighbours is
	// exactly the spacer thickness, whatever the mandrel CD does.
	for _, dm := range []float64{-3e-9, 0, 3e-9} {
		var w Window
		if err := Realize(&p, SADP, Sample{CDCore: dm}, &w); err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.GapBelow()-p.SADP.SpacerThk) > 1e-15 ||
			math.Abs(w.GapAbove()-p.SADP.SpacerThk) > 1e-15 {
			t.Fatalf("dm=%g: gaps %g/%g, want spacer %g",
				dm, w.GapBelow(), w.GapAbove(), p.SADP.SpacerThk)
		}
	}
}

func TestSADPAntiCorrelation(t *testing.T) {
	p := tech.N10()
	// Shrinking the mandrel widens the bit line and narrows the core
	// (power) line by the same amount: the paper's Rbl/RVSS
	// anti-correlation mechanism.
	var w Window
	if err := Realize(&p, SADP, Sample{CDCore: -3e-9}, &w); err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.VictimWire().Width()-(p.M1.Width+3e-9)) > 1e-15 {
		t.Fatalf("victim width %g", w.VictimWire().Width())
	}
	if math.Abs(w.Below().Width()-(p.SADP.MandrelWidth-3e-9)) > 1e-15 {
		t.Fatalf("core width %g", w.Below().Width())
	}
}

func TestSADPPeriodConservationProperty(t *testing.T) {
	p := tech.N10()
	f := func(dmRaw, dtRaw float64) bool {
		// Keep deltas in a physically sane band.
		dm := math.Mod(math.Abs(dmRaw), 8e-9) - 4e-9
		dt := math.Mod(math.Abs(dtRaw), 6e-9) - 3e-9
		var w Window
		if err := Realize(&p, SADP, Sample{CDCore: dm, CDSpacer: dt}, &w); err != nil {
			return true // collapsed geometry is allowed to error
		}
		// victim width + core width + 2 spacers == period
		sum := w.VictimWire().Width() + w.Below().Width() + w.GapBelow() + w.GapAbove()
		return math.Abs(sum-p.SADP.Period) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEUVCommonCD(t *testing.T) {
	p := tech.N10()
	var w Window
	if err := Realize(&p, EUV, Sample{CDEUV: 3e-9}, &w); err != nil {
		t.Fatal(err)
	}
	for i, wr := range w.Wires {
		if math.Abs(wr.Width()-(p.M1.Width+3e-9)) > 1e-15 {
			t.Fatalf("wire %d width %g", i, wr.Width())
		}
		if wr.Mask != MaskEUV {
			t.Fatalf("wire %d mask %v", i, wr.Mask)
		}
	}
	// All spacings shrink by the CD delta.
	if math.Abs(w.GapBelow()-(p.M1.Space-3e-9)) > 1e-15 {
		t.Fatalf("gap %g", w.GapBelow())
	}
}

func TestRealizeRejectsCollapsedGeometry(t *testing.T) {
	p := tech.N10()
	for _, c := range []struct {
		name string
		o    Option
		s    Sample
	}{
		{"merged wires", LE3, Sample{OLB: 25e-9}},        // mask-B comb merges into the victim
		{"collapsed gap", SADP, Sample{CDSpacer: 14e-9}}, // spacer eats the whole gap line
		{"unknown option", Option(42), Nominal},
	} {
		var w Window
		if err := Realize(&p, c.o, c.s, &w); err == nil {
			t.Fatalf("%s: expected an error", c.name)
		}
		if w != (Window{}) {
			t.Fatalf("%s: a failed Realize left %+v, want the zero window", c.name, w)
		}
	}
}

func TestParamsAndCorners(t *testing.T) {
	p := tech.N10()
	wantCount := map[Option]int{LE3: 5, SADP: 2, EUV: 1}
	for o, k := range wantCount {
		prm := Params(p, o)
		if len(prm) != k {
			t.Fatalf("%v: %d params, want %d", o, len(prm), k)
		}
		corners := Corners(p, o)
		want := int(math.Pow(3, float64(k)))
		if len(corners) != want {
			t.Fatalf("%v: %d corners, want %d", o, len(corners), want)
		}
		// Corner values are in {−1,0,1}.
		for _, c := range corners {
			for _, v := range c {
				if v < -1 || v > 1 {
					t.Fatalf("%v: corner value %d", o, v)
				}
			}
		}
	}
	if Params(p, Option(42)) != nil {
		t.Fatal("unknown option must have no params")
	}
}

func TestParamsSigmaFromPaper(t *testing.T) {
	p := tech.N10()
	// 3σ CD = 3 nm ⇒ σ = 1 nm; 3σ spacer = 1.5 nm ⇒ σ = 0.5 nm;
	// 3σ OL = 8 nm (preset) ⇒ σ = 8/3 nm.
	sig := map[string]float64{}
	for _, o := range Options {
		for _, prm := range Params(p, o) {
			sig[prm.Name] = prm.Sigma
		}
	}
	if math.Abs(sig["CD_A"]-1e-9) > 1e-15 || math.Abs(sig["CD"]-1e-9) > 1e-15 {
		t.Fatalf("CD sigma: %v", sig)
	}
	if math.Abs(sig["CD_spacer"]-0.5e-9) > 1e-15 {
		t.Fatalf("spacer sigma: %v", sig)
	}
	if math.Abs(sig["OL_B"]-8e-9/3) > 1e-15 {
		t.Fatalf("OL sigma: %v", sig)
	}
	// Table IV sweep hook: overlay sigma follows WithOL.
	p3 := p.WithOL(3e-9)
	for _, prm := range Params(p3, LE3) {
		if prm.Name == "OL_B" && math.Abs(prm.Sigma-1e-9) > 1e-15 {
			t.Fatalf("WithOL(3nm) OL sigma = %g", prm.Sigma)
		}
	}
}

func TestCornerSampleAndString(t *testing.T) {
	p := tech.N10()
	corners := Corners(p, EUV)
	var sawPlus bool
	for _, c := range corners {
		s := CornerSample(Params(p, EUV), c)
		if c[0] == 1 {
			sawPlus = true
			if math.Abs(s.CDEUV-3e-9) > 1e-15 {
				t.Fatalf("+3σ corner CD = %g", s.CDEUV)
			}
			if got := CornerString(p, EUV, c); got != "CD+3σ" {
				t.Fatalf("CornerString = %q", got)
			}
		}
		if c[0] == 0 {
			if got := CornerString(p, EUV, c); got != "nominal" {
				t.Fatalf("nominal CornerString = %q", got)
			}
		}
	}
	if !sawPlus {
		t.Fatal("corner enumeration missing +1")
	}
}

func TestWindowHelpers(t *testing.T) {
	p := tech.N10()
	var w Window
	if err := Realize(&p, LE3, Nominal, &w); err != nil {
		t.Fatal(err)
	}
	if Describe(w) == "" {
		t.Fatal("Describe empty")
	}
}

func TestRandomSamplesRealizable(t *testing.T) {
	// Within ±4σ of the paper's budgets, geometry stays valid for SADP
	// and EUV and for LE3 at the 3 nm overlay budget.
	p := tech.N10().WithOL(3e-9)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		for _, o := range Options {
			var s Sample
			for _, prm := range Params(p, o) {
				prm.Apply(&s, rng.NormFloat64()*prm.Sigma)
			}
			var w Window
			if err := Realize(&p, o, s, &w); err != nil {
				t.Fatalf("trial %d %v: %v (sample %+v)", trial, o, err, s)
			}
		}
	}
}
