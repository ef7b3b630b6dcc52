package analytic_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"mpsram/internal/analytic"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/tech"
)

// tdpStream runs option o's Monte-Carlo trial (analytic.TdpTrial) at
// sizes on the mc engine.
func tdpStream(p tech.Process, o litho.Option, m analytic.Params, cm extract.CapModel, sizes []int, cfg mc.Config) (*mc.VectorResult, error) {
	trial, err := analytic.TdpTrial(p, o, m, cm, sizes)
	if err != nil {
		return nil, err
	}
	return mc.RunVector(context.Background(), cfg, len(sizes), trial)
}

func TestPropagateMatchesMonteCarloForLinearOptions(t *testing.T) {
	// SADP and EUV respond almost linearly over ±3σ, so the linearized
	// σ must track the sampled σ within ~15 %.
	p := tech.N10()
	m := deriveModel(t)
	cm := extract.SakuraiTamaru{}
	for _, o := range []litho.Option{litho.SADP, litho.EUV} {
		prop, err := analytic.PropagateTdp(p, o, m, cm, 64)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tdpStream(p, o, m, cm, []int{64}, mc.Config{Samples: 8000, Seed: 21, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		sum := res.Summary(0)
		ratio := prop.SigmaPP / sum.Std
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%v: linearized σ %.3f vs MC σ %.3f (ratio %.2f)",
				o, prop.SigmaPP, sum.Std, ratio)
		}
	}
}

func TestPropagateLE3NonlinearityShowsInTail(t *testing.T) {
	// LE3 at 8 nm overlay: the coupling law is convex in the overlay
	// shift, so the sampled distribution is right-skewed and its σ
	// exceeds the linearized estimate.
	p := tech.N10() // 8 nm preset
	m := deriveModel(t)
	cm := extract.SakuraiTamaru{}
	prop, err := analytic.PropagateTdp(p, litho.LE3, m, cm, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tdpStream(p, litho.LE3, m, cm, []int{64}, mc.Config{Samples: 8000, Seed: 22, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary(0)
	if !(sum.Std > prop.SigmaPP) {
		t.Errorf("sampled σ %.3f not above linearized %.3f under convex coupling",
			sum.Std, prop.SigmaPP)
	}
	if sum.Skew <= 0 {
		t.Errorf("LE3 skew %.3f, want positive", sum.Skew)
	}
	// Still the same order of magnitude.
	if sum.Std > 2*prop.SigmaPP {
		t.Errorf("linearization off by more than 2x: %.3f vs %.3f",
			prop.SigmaPP, sum.Std)
	}
}

func TestPropagateSensitivityBreakdown(t *testing.T) {
	// For LE3 at the 8 nm budget, overlay dominates the variance — the
	// paper's central claim ("the OL error plays a decisive role").
	p := tech.N10()
	m := deriveModel(t)
	prop, err := analytic.PropagateTdp(p, litho.LE3, m, extract.SakuraiTamaru{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	contrib := map[string]float64{}
	for _, s := range prop.Sensitivities {
		contrib[s.Param] = s.DTdpDSigma * s.DTdpDSigma
	}
	olVar := contrib["OL_B"] + contrib["OL_C"]
	cdVar := contrib["CD_A"] + contrib["CD_B"] + contrib["CD_C"]
	if olVar <= cdVar {
		t.Errorf("overlay variance %.4f not dominating CD variance %.4f at 8nm", olVar, cdVar)
	}
	// At a 3 nm budget CD and OL become comparable (within 4x).
	prop3, err := analytic.PropagateTdp(p.WithOL(3e-9), litho.LE3, m, extract.SakuraiTamaru{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	contrib3 := map[string]float64{}
	for _, s := range prop3.Sensitivities {
		contrib3[s.Param] = s.DTdpDSigma * s.DTdpDSigma
	}
	ol3 := contrib3["OL_B"] + contrib3["OL_C"]
	cd3 := contrib3["CD_A"] + contrib3["CD_B"] + contrib3["CD_C"]
	if ol3 > 4*cd3 {
		t.Errorf("at 3nm OL should no longer dwarf CD: %.4f vs %.4f", ol3, cd3)
	}
}

func TestPropagateErrors(t *testing.T) {
	p := tech.N10()
	m := deriveModel(t)
	if _, err := analytic.PropagateTdp(p, litho.Option(42), m, extract.SakuraiTamaru{}, 64); err == nil {
		t.Fatal("unknown option accepted")
	}
	bad := m
	bad.CPre = nil
	if _, err := analytic.PropagateTdp(p, litho.EUV, bad, extract.SakuraiTamaru{}, 64); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestPropagateSigmaNonNegative(t *testing.T) {
	p := tech.N10()
	m := deriveModel(t)
	for _, o := range litho.AllOptions {
		prop, err := analytic.PropagateTdp(p, o, m, extract.SakuraiTamaru{}, 256)
		if err != nil {
			t.Fatal(err)
		}
		if prop.SigmaPP <= 0 || math.IsNaN(prop.SigmaPP) {
			t.Fatalf("%v: sigma %g", o, prop.SigmaPP)
		}
	}
}

func TestTdpTrialValidatesModel(t *testing.T) {
	m := deriveModel(t)
	m.CPre = nil
	const want = "analytic: missing CPre scaling"
	if _, err := tdpStream(tech.N10(), litho.EUV, m, extract.SakuraiTamaru{}, []int{64}, mc.Config{Samples: 10, Seed: 1}); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("invalid model: error %v, want prefix %q", err, want)
	}
}

// TestTdpTrialValidatesStream checks that a nil capacitance model, an
// empty size list and an unrealizable nominal window are reported before
// any trial runs, rather than panicking inside a worker or surfacing as
// an all-rejected run.
func TestTdpTrialValidatesStream(t *testing.T) {
	p, m := tech.N10(), deriveModel(t)
	merged := p
	merged.M1.Width = merged.M1.Pitch + 1e-9 // nominal neighbours overlap
	for _, tc := range []struct {
		name  string
		p     tech.Process
		cm    extract.CapModel
		sizes []int
		want  string
	}{
		{"nil cap model", p, nil, []int{64}, "analytic: nil capacitance model"},
		{"no sizes", p, extract.SakuraiTamaru{}, nil, "analytic: no array sizes requested"},
		{"merged nominal", merged, extract.SakuraiTamaru{}, []int{64}, "analytic: nominal geometry: EUV: wires 0 and 1 merged"},
	} {
		trials := 0
		cfg := mc.Config{Samples: 10, Seed: 1, Progress: func(done, _ int) { trials = done }}
		_, err := tdpStream(tc.p, litho.EUV, m, tc.cm, tc.sizes, cfg)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want prefix %q", tc.name, err, tc.want)
		}
		if trials != 0 {
			t.Errorf("%s: %d trials ran before the error", tc.name, trials)
		}
	}
}

// deriveModel mirrors the internal test helper for the external package.
func deriveModel(t *testing.T) analytic.Params {
	t.Helper()
	p := tech.N10()
	var win litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &win); err != nil {
		t.Fatal(err)
	}
	cell := extract.PerCell(p, extract.ExtractVictim(p, win, extract.SakuraiTamaru{}))
	m, err := analytic.Derive(p, cell.Rbl, cell.Cbl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
