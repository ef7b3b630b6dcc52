// First-order variance propagation: the deterministic fast path to the
// paper's Table IV. Instead of Monte-Carlo sampling, linearize tdp around
// the nominal point — σ²(tdp) ≈ Σ (∂tdp/∂xᵢ)²·σᵢ² over the independent
// process parameters — and compare with the sampled σ. For the nearly
// linear SADP/EUV responses the two agree tightly; for LE3 at large
// overlay budgets the (s/h)^−1.34 coupling nonlinearity makes the sampled
// σ exceed the linearized one, which is itself a useful diagnostic of the
// distribution's skew. TdpTrial is that sampled side: the Monte-Carlo
// trial the engine in internal/mc runs for Fig. 5 and Table IV.
package analytic

import (
	"fmt"
	"math"
	"math/rand"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

// Sensitivity is one parameter's contribution to the tdp variance.
type Sensitivity struct {
	Param string
	Sigma float64 // 1σ amplitude, metres
	// DTdpDSigma is ∂tdp/∂xᵢ · σᵢ: the tdp shift (percentage points) per
	// 1σ move of the parameter.
	DTdpDSigma float64
}

// Propagation is the linearized tdp distribution estimate.
type Propagation struct {
	Option        litho.Option
	N             int
	Sensitivities []Sensitivity
	// SigmaPP is the root-sum-square tdp standard deviation in
	// percentage points.
	SigmaPP float64
}

// PropagateTdp linearizes tdp(n) around the nominal point for option o by
// central finite differences of ±0.5σ per parameter.
func PropagateTdp(p tech.Process, o litho.Option, m Params, cm extract.CapModel, n int) (Propagation, error) {
	if err := m.Validate(); err != nil {
		return Propagation{}, err
	}
	params := litho.Params(p, o)
	if len(params) == 0 {
		return Propagation{}, fmt.Errorf("analytic: option %v has no variation parameters", o)
	}
	rm, err := extract.NewRatioModel(p, o, cm)
	if err != nil {
		return Propagation{}, fmt.Errorf("analytic: propagate: %w", err)
	}
	out := Propagation{Option: o, N: n}
	var variance float64
	for _, prm := range params {
		tdpAt := func(mult float64) (float64, error) {
			var s litho.Sample
			prm.Apply(&s, mult*prm.Sigma)
			r, err := rm.Ratios(s)
			if err != nil {
				return 0, err
			}
			return m.TdpPct(n, r.Rvar, r.Cvar), nil
		}
		up, err := tdpAt(+0.5)
		if err != nil {
			return Propagation{}, fmt.Errorf("analytic: propagate %s: %w", prm.Name, err)
		}
		dn, err := tdpAt(-0.5)
		if err != nil {
			return Propagation{}, fmt.Errorf("analytic: propagate %s: %w", prm.Name, err)
		}
		perSigma := up - dn // central difference over a full σ
		out.Sensitivities = append(out.Sensitivities, Sensitivity{
			Param:      prm.Name,
			Sigma:      prm.Sigma,
			DTdpDSigma: perSigma,
		})
		variance += perSigma * perSigma
	}
	out.SigmaPP = math.Sqrt(variance)
	return out, nil
}

// TdpTrial returns the Monte-Carlo trial behind the paper's sampled tdp
// distributions: one canonical litho.Draw of option o's parameters and
// one ratio extraction per trial, evaluated through the formula at every
// array size in sizes, with out[j] the tdp penalty at sizes[j]. Draws
// whose geometry collapses reject the trial. The parameters and the
// ratio model are built here, once per stream, so a trial allocates
// nothing and one closure serves every worker; an invalid model, an
// empty sizes, a nil capacitance model or an unrealizable nominal window
// is reported here, before any trial runs.
func TdpTrial(p tech.Process, o litho.Option, m Params, cm extract.CapModel, sizes []int) (func(*rand.Rand, []float64) bool, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("analytic: no array sizes requested")
	}
	rm, err := extract.NewRatioModel(p, o, cm)
	if err != nil {
		return nil, fmt.Errorf("analytic: %w", err)
	}
	params := litho.Params(p, o)
	return func(rng *rand.Rand, out []float64) bool {
		r, err := rm.Ratios(litho.Draw(params, rng))
		if err != nil {
			return false
		}
		for j, n := range sizes {
			out[j] = m.TdpPct(n, r.Rvar, r.Cvar)
		}
		return true
	}, nil
}
