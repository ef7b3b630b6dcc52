package extract

import (
	"fmt"
	"math"

	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

// This file keeps a 2-D electrostatic field solver on the wire
// cross-section, the golden reference field_test.go checks the closed-form
// capacitance models against.
//
// The solver discretizes the Laplace equation ∇²V = 0 on a uniform grid
// over the cross-section of a parallel-wire array between two conducting
// planes, with Dirichlet conditions on the conductors and planes and
// Neumann (mirror) conditions on the lateral window edges. Successive
// over-relaxation (SOR) drives the residual down; per-unit-length charge
// on each conductor is recovered from a Gauss contour one cell outside
// its surface, which directly yields the capacitance matrix column for a
// 1 V excitation.
//
// This is deliberately a from-scratch, dependency-free replacement for the
// field-solver step inside the paper's proprietary LPE flow: slow but
// trustworthy, and only used to validate the fast empirical models.

// Solver holds the discretized cross-section.
type Solver struct {
	Dx     float64 // grid spacing, metres
	NX, NZ int     // grid dimensions
	Eps    float64 // homogeneous dielectric permittivity, F/m

	pot   []float64 // potential, NX×NZ, row-major by z
	owner []int     // conductor id per cell: −1 dielectric, −2 planes, ≥0 wire index
}

const (
	cellDielectric = -1
	cellPlane      = -2
)

func (s *Solver) idx(ix, iz int) int { return iz*s.NX + ix }

// NewCrossSection builds the solver grid for the realized window win on
// process p with grid spacing dx. The domain spans the window wires plus
// one pitch of margin laterally, and the full plane-to-plane height.
func NewCrossSection(p tech.Process, win litho.Window, dx float64) (*Solver, error) {
	if dx <= 0 {
		return nil, fmt.Errorf("field: non-positive grid spacing %g", dx)
	}
	m := p.M1
	d := p.Diel
	left := win.Wires[0].Span.Lo - m.Pitch/2
	right := win.Wires[len(win.Wires)-1].Span.Hi + m.Pitch/2
	height := d.HBelow + m.Thickness + d.HAbove
	nx := int(math.Round((right-left)/dx)) + 1
	nz := int(math.Round(height/dx)) + 1
	if nx < 8 || nz < 8 {
		return nil, fmt.Errorf("field: grid too coarse (%dx%d)", nx, nz)
	}
	if nx*nz > 4<<20 {
		return nil, fmt.Errorf("field: grid too fine (%dx%d cells)", nx, nz)
	}
	s := &Solver{Dx: dx, NX: nx, NZ: nz, Eps: d.Eps()}
	s.pot = make([]float64, nx*nz)
	s.owner = make([]int, nx*nz)
	for i := range s.owner {
		s.owner[i] = cellDielectric
	}
	// Ground planes: bottom and top grid rows.
	for ix := 0; ix < nx; ix++ {
		s.owner[s.idx(ix, 0)] = cellPlane
		s.owner[s.idx(ix, nz-1)] = cellPlane
	}
	// Wires occupy z in [HBelow, HBelow+Thickness].
	z0 := int(math.Round(d.HBelow / dx))
	z1 := int(math.Round((d.HBelow + m.Thickness) / dx))
	for wi, wire := range win.Wires {
		x0 := int(math.Round((wire.Span.Lo - left) / dx))
		x1 := int(math.Round((wire.Span.Hi - left) / dx))
		if x1 <= x0 || z1 <= z0 {
			return nil, fmt.Errorf("field: wire %d collapses on a %g grid", wi, dx)
		}
		for iz := z0; iz <= z1; iz++ {
			for ix := x0; ix <= x1; ix++ {
				if ix <= 0 || ix >= nx-1 || iz <= 0 || iz >= nz-1 {
					return nil, fmt.Errorf("field: wire %d touches the domain boundary", wi)
				}
				s.owner[s.idx(ix, iz)] = wi
			}
		}
	}
	return s, nil
}

// Excite sets the boundary potentials: wire `victim` at 1 V, every other
// conductor and both planes at 0 V, and clears the dielectric potential.
func (s *Solver) Excite(victim int) {
	for i, o := range s.owner {
		switch {
		case o == victim && o >= 0:
			s.pot[i] = 1
		default:
			s.pot[i] = 0
		}
	}
}

// Solve runs SOR until the maximum update falls below tol or maxIter
// sweeps elapse, returning the sweep count and final residual.
func (s *Solver) Solve(maxIter int, tol float64) (int, float64) {
	const omega = 1.92
	nx, nz := s.NX, s.NZ
	var resid float64
	for iter := 1; iter <= maxIter; iter++ {
		resid = 0
		for iz := 1; iz < nz-1; iz++ {
			base := iz * nx
			for ix := 1; ix < nx-1; ix++ {
				i := base + ix
				if s.owner[i] != cellDielectric {
					continue
				}
				// Neumann mirror on lateral edges is enforced by the
				// one-cell inset loop plus edge clamping below.
				left := s.pot[i-1]
				right := s.pot[i+1]
				if ix == 1 {
					left = s.pot[i+1]
				}
				if ix == nx-2 {
					right = s.pot[i-1]
				}
				v := 0.25 * (left + right + s.pot[i-nx] + s.pot[i+nx])
				dv := v - s.pot[i]
				s.pot[i] += omega * dv
				if a := math.Abs(dv); a > resid {
					resid = a
				}
			}
		}
		if resid < tol {
			return iter, resid
		}
	}
	return maxIter, resid
}

// ChargePerM returns the induced charge per metre of wire length on
// conductor id (a wire index, or the planes via PlaneID) by summing the
// normal field through a Gauss contour one cell outside the conductor.
func (s *Solver) ChargePerM(id int) float64 {
	nx, nz := s.NX, s.NZ
	var q float64
	for iz := 0; iz < nz; iz++ {
		for ix := 0; ix < nx; ix++ {
			i := s.idx(ix, iz)
			if s.owner[i] != id {
				continue
			}
			vc := s.pot[i]
			// For each of the four neighbours that is dielectric, the
			// flux through that face is ε·(Vc−Vn)/dx · dx = ε·(Vc−Vn).
			if ix > 0 && s.owner[i-1] == cellDielectric {
				q += vc - s.pot[i-1]
			}
			if ix < nx-1 && s.owner[i+1] == cellDielectric {
				q += vc - s.pot[i+1]
			}
			if iz > 0 && s.owner[i-nx] == cellDielectric {
				q += vc - s.pot[i-nx]
			}
			if iz < nz-1 && s.owner[i+nx] == cellDielectric {
				q += vc - s.pot[i+nx]
			}
		}
	}
	return s.Eps * q
}

// PlaneID is the conductor id of the ground planes for ChargePerM.
const PlaneID = cellPlane

// CapResult is the capacitance column extracted for the excited victim.
type CapResult struct {
	CTotalPerM  float64   // total victim capacitance per metre
	CcPerM      []float64 // −charge on each other wire (coupling), indexed like win.Wires
	CPlanesPerM float64   // −charge on the planes (ground component)
	Sweeps      int
	Residual    float64
}

// VictimCaps excites the window victim and extracts its capacitance
// column. dx controls accuracy (1 nm is ~5 % on this geometry); maxIter
// and tol bound the SOR loop.
func VictimCaps(p tech.Process, win litho.Window, dx float64, maxIter int, tol float64) (CapResult, error) {
	s, err := NewCrossSection(p, win, dx)
	if err != nil {
		return CapResult{}, err
	}
	s.Excite(win.Victim)
	sweeps, resid := s.Solve(maxIter, tol)
	res := CapResult{
		CTotalPerM: s.ChargePerM(win.Victim),
		CcPerM:     make([]float64, len(win.Wires)),
		Sweeps:     sweeps,
		Residual:   resid,
	}
	for i := range win.Wires {
		if i == win.Victim {
			continue
		}
		res.CcPerM[i] = -s.ChargePerM(i)
	}
	res.CPlanesPerM = -s.ChargePerM(PlaneID)
	return res, nil
}

// ChargeBalance returns the net charge per metre over every conductor in
// the solved system; for a correct solution it is ~0 (what leaves the
// victim lands on the other conductors).
func (s *Solver) ChargeBalance(nWires int) float64 {
	total := s.ChargePerM(PlaneID)
	for i := 0; i < nWires; i++ {
		total += s.ChargePerM(i)
	}
	return total
}
