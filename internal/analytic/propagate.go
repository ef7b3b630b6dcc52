// First-order variance propagation: the deterministic fast path to the
// paper's Table IV. Instead of Monte-Carlo sampling, linearize tdp around
// the nominal point — σ²(tdp) ≈ Σ (∂tdp/∂xᵢ)²·σᵢ² over the independent
// process parameters — and compare with the sampled σ. For the nearly
// linear SADP/EUV responses the two agree tightly; for LE3 at large
// overlay budgets the (s/h)^−1.34 coupling nonlinearity makes the sampled
// σ exceed the linearized one, which is itself a useful diagnostic of the
// distribution's skew.
package analytic

import (
	"fmt"
	"math"

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
