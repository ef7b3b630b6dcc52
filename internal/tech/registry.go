// The process registry: named technology presets and the scaling helper
// that derives them. The paper's study is pinned to one imec-N10-flavoured
// node; the registry turns the process description into a first-class
// axis — N7- and N5-class presets derived from N10 by a validated
// geometric shrink — so every workload (analytic MC, SPICE sweeps,
// SPICE-in-the-loop MC) can sweep across nodes.
//
// Derivation model: a node shrink scales every drawn geometry (pitches,
// widths, metal and barrier thickness, cell footprint, device widths) by
// one linear factor, while the lithography variation budgets shrink more
// slowly — CD and overlay control do not improve at the pace of the
// pitch, which is exactly why multi-patterning variability worsens at
// tighter nodes — and the effective resistivity grows as the line CD
// approaches the electron mean free path (surface/grain scattering).
// Voltages, permittivities and per-metre FEOL capacitance densities are
// held; they are not functions of the metal pitch at this modelling
// level.
package tech

import (
	"fmt"
	"strings"
	"sync"
)

// DeriveSpec parameterizes a node shrink from a base process. The zero
// value of a field means "inherit" (scale 1).
type DeriveSpec struct {
	// Name is the derived preset's registry name (required).
	Name string
	// Geom is the linear shrink applied to every drawn geometry: M1
	// pitch/width/space/thickness, barrier, dielectric plane distances,
	// SADP period/mandrel/spacer, cell pitches and device widths.
	// Required: must be in (0, 1].
	Geom float64
	// Var is the shrink applied to the 3σ variation budgets (CD,
	// spacer, overlay, thickness). Litho control improves slower than
	// the pitch, so typically Geom < Var ≤ 1. Defaults to 1 (budgets
	// held — the pessimistic constant-variability assumption).
	Var float64
	// Rho scales the effective resistivity up to model the stronger
	// surface and grain-boundary scattering of narrower lines.
	// Defaults to 1; must be ≥ 1.
	Rho float64
}

// scale1 returns s, defaulting the zero value to 1.
func scale1(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// Derive produces a validated derived preset from base by applying spec.
// Every drawn geometry scales by spec.Geom, the variation budgets by
// spec.Var and the resistivity by spec.Rho; the result is checked with
// Process.Validate so an inconsistent spec fails here, not in an engine.
func Derive(base Process, spec DeriveSpec) (Process, error) {
	if spec.Name == "" {
		return Process{}, fmt.Errorf("tech: derive from %s: empty name", base.Name)
	}
	g := spec.Geom
	if g <= 0 || g > 1 {
		return Process{}, fmt.Errorf("tech: derive %s: geometry scale %v outside (0, 1]", spec.Name, g)
	}
	v := scale1(spec.Var)
	if v <= 0 {
		return Process{}, fmt.Errorf("tech: derive %s: variation scale %v must be positive", spec.Name, v)
	}
	rho := scale1(spec.Rho)
	if rho < 1 {
		return Process{}, fmt.Errorf("tech: derive %s: resistivity scale %v < 1", spec.Name, rho)
	}

	p := base
	p.Name = spec.Name
	m := &p.M1
	m.Pitch *= g
	m.Width *= g
	m.Space *= g
	m.Thickness *= g
	m.BarrierBottom *= g
	m.BarrierSide *= g
	m.Rho *= rho
	p.Diel.HBelow *= g
	p.Diel.HAbove *= g
	p.SADP.Period *= g
	p.SADP.MandrelWidth *= g
	p.SADP.SpacerThk *= g
	p.Cell.XPitch *= g
	p.Cell.YPitch *= g
	f := &p.FEOL
	f.WPassGate *= g
	f.WPullDown *= g
	f.WPullUp *= g
	f.LGate *= g
	f.WPre0 *= g
	p.Var.CD3Sigma *= v
	p.Var.Spacer3Sigma *= v
	p.Var.OL3Sigma *= v
	p.Var.Thk3Sigma *= v
	if err := p.Validate(); err != nil {
		return Process{}, fmt.Errorf("tech: derive %s: %w", spec.Name, err)
	}
	return p, nil
}

// N7 returns the N7-class preset: a 0.75× shrink of N10 (36 nm M1 pitch)
// with variation budgets at 0.85× (CD 3σ 2.55 nm, OL 3σ 6.8 nm) and 20 %
// higher effective resistivity.
func N7() Process {
	p, err := Derive(N10(), DeriveSpec{Name: "N7", Geom: 0.75, Var: 0.85, Rho: 1.2})
	if err != nil {
		panic(err) // the preset is pinned by tests; unreachable
	}
	return p
}

// N5 returns the N5-class preset: a 0.5833...× shrink of N10 (28 nm M1
// pitch) with variation budgets at 0.75× (CD 3σ 2.25 nm, OL 3σ 6 nm) and
// 45 % higher effective resistivity.
func N5() Process {
	p, err := Derive(N10(), DeriveSpec{Name: "N5", Geom: 28.0 / 48.0, Var: 0.75, Rho: 1.45})
	if err != nil {
		panic(err) // the preset is pinned by tests; unreachable
	}
	return p
}

// Registry is an ordered set of named, validated technology presets.
type Registry struct {
	names []string
	procs map[string]Process
}

// NewRegistry builds a registry from the given presets, validating each
// and rejecting duplicate names. Iteration order is insertion order.
func NewRegistry(procs ...Process) (*Registry, error) {
	r := &Registry{procs: make(map[string]Process, len(procs))}
	for _, p := range procs {
		if err := r.add(p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// add validates p and appends it to the registry. Only NewRegistry adds,
// so a registry is immutable once built and safe to share.
func (r *Registry) add(p Process) error {
	if p.Name == "" {
		return fmt.Errorf("tech: registry: preset with empty name")
	}
	if _, dup := r.procs[p.Name]; dup {
		return fmt.Errorf("tech: registry: duplicate preset %q", p.Name)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("tech: registry: %w", err)
	}
	r.procs[p.Name] = p
	r.names = append(r.names, p.Name)
	return nil
}

// Names returns the preset names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.names...)
}

// Processes returns the presets in registration order.
func (r *Registry) Processes() []Process {
	out := make([]Process, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.procs[n])
	}
	return out
}

// Lookup resolves a preset by name (case-insensitive). An unknown name
// returns an error that lists the valid names, so a CLI typo answers
// itself.
func (r *Registry) Lookup(name string) (Process, error) {
	if p, ok := r.procs[name]; ok {
		return p, nil
	}
	for n, p := range r.procs {
		if strings.EqualFold(n, name) {
			return p, nil
		}
	}
	return Process{}, fmt.Errorf("tech: unknown process %q (valid: %s)",
		name, strings.Join(r.names, ", "))
}

// Default returns the shipped registry: the calibrated N10 preset plus
// the derived N7- and N5-class nodes, in that order. It is built and
// validated once per process and shared; a Registry cannot be changed
// after NewRegistry, and its accessors return copies.
func Default() *Registry { return defaultRegistry() }

var defaultRegistry = sync.OnceValue(func() *Registry {
	r, err := NewRegistry(N10(), N7(), N5())
	if err != nil {
		panic(err) // presets are pinned by tests; unreachable
	}
	return r
})
