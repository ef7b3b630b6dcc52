package tech

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mpsram/internal/units"
)

// TestDerivedPresetsValidate pins every registry preset against
// Process.Validate — the derivation rules must keep the cross-constraints
// (width+space = pitch, SADP period = 2·pitch, gap = signal width) intact.
func TestDerivedPresetsValidate(t *testing.T) {
	for _, p := range Default().Processes() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestDerivedPresetPins pins the headline parameters of the derived
// presets so a silent change to the derivation rules fails loudly.
func TestDerivedPresetPins(t *testing.T) {
	nm := units.Nano
	cases := []struct {
		proc            Process
		pitch, cd3, ol3 float64
		rho             float64
	}{
		{N10(), 48 * nm, 3 * nm, 8 * nm, 5.0e-8},
		{N7(), 36 * nm, 2.55 * nm, 6.8 * nm, 6.0e-8},
		{N5(), 28 * nm, 2.25 * nm, 6 * nm, 7.25e-8},
	}
	for _, c := range cases {
		p := c.proc
		if !units.ApproxEqual(p.M1.Pitch, c.pitch, 1e-12, 0) {
			t.Errorf("%s: M1 pitch %v, want %v", p.Name, p.M1.Pitch, c.pitch)
		}
		if !units.ApproxEqual(p.Var.CD3Sigma, c.cd3, 1e-12, 0) {
			t.Errorf("%s: CD 3σ %v, want %v", p.Name, p.Var.CD3Sigma, c.cd3)
		}
		if !units.ApproxEqual(p.Var.OL3Sigma, c.ol3, 1e-12, 0) {
			t.Errorf("%s: OL 3σ %v, want %v", p.Name, p.Var.OL3Sigma, c.ol3)
		}
		if !units.ApproxEqual(p.M1.Rho, c.rho, 1e-12, 0) {
			t.Errorf("%s: rho %v, want %v", p.Name, p.M1.Rho, c.rho)
		}
	}
}

// TestDeriveScalesGeometryUniformly checks the linear-shrink contract on
// a sample of coupled fields.
func TestDeriveScalesGeometryUniformly(t *testing.T) {
	base := N10()
	const g = 0.8
	p, err := Derive(base, DeriveSpec{Name: "X8", Geom: g})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"M1.Width", p.M1.Width, base.M1.Width * g},
		{"M1.Thickness", p.M1.Thickness, base.M1.Thickness * g},
		{"M1.BarrierBottom", p.M1.BarrierBottom, base.M1.BarrierBottom * g},
		{"Diel.HBelow", p.Diel.HBelow, base.Diel.HBelow * g},
		{"SADP.SpacerThk", p.SADP.SpacerThk, base.SADP.SpacerThk * g},
		{"Cell.XPitch", p.Cell.XPitch, base.Cell.XPitch * g},
		{"FEOL.WPassGate", p.FEOL.WPassGate, base.FEOL.WPassGate * g},
		{"FEOL.WPre0", p.FEOL.WPre0, base.FEOL.WPre0 * g},
	}
	for _, pr := range pairs {
		if !units.ApproxEqual(pr.got, pr.want, 1e-12, 0) {
			t.Errorf("%s: %v, want %v", pr.name, pr.got, pr.want)
		}
	}
	// Var defaults to held (scale 1).
	if p.Var.CD3Sigma != base.Var.CD3Sigma {
		t.Errorf("CD 3σ scaled without Var spec: %v vs %v", p.Var.CD3Sigma, base.Var.CD3Sigma)
	}
	// Electrical constants are held.
	if p.FEOL.Vdd != base.FEOL.Vdd || p.Diel.EpsR != base.Diel.EpsR {
		t.Error("derive must not touch voltages or permittivity")
	}
}

// TestDeriveRejectsBadSpecs exercises the error paths.
func TestDeriveRejectsBadSpecs(t *testing.T) {
	base := N10()
	for _, spec := range []DeriveSpec{
		{Name: "", Geom: 0.5},
		{Name: "bad", Geom: 0},
		{Name: "bad", Geom: -1},
		{Name: "bad", Geom: 1.5},
		{Name: "bad", Geom: 0.5, Var: -2},
		{Name: "bad", Geom: 0.5, Rho: 0.5},
	} {
		if _, err := Derive(base, spec); err == nil {
			t.Errorf("spec %+v: want error", spec)
		}
	}
}

// TestRegistryLookup covers hit, case-insensitive hit and the
// miss-with-valid-names contract the CLI relies on.
func TestRegistryLookup(t *testing.T) {
	r := Default()
	for _, name := range []string{"N10", "N7", "N5", "n7"} {
		p, err := r.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if !strings.EqualFold(p.Name, name) {
			t.Fatalf("Lookup(%q) returned %s", name, p.Name)
		}
	}
	_, err := r.Lookup("N3")
	if err == nil {
		t.Fatal("Lookup(N3): want error")
	}
	for _, want := range []string{"N10", "N7", "N5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %s", err, want)
		}
	}
}

// TestRegistryOrderAndDuplicates pins registration order and the
// duplicate/invalid rejection.
func TestRegistryOrderAndDuplicates(t *testing.T) {
	r := Default()
	names := r.Names()
	if len(names) != 3 || names[0] != "N10" || names[1] != "N7" || names[2] != "N5" {
		t.Fatalf("default registry names %v", names)
	}
	if _, err := NewRegistry(N10(), N10()); err == nil {
		t.Fatal("duplicate preset must be rejected")
	}
	bad := N10()
	bad.M1.Width = -1
	if _, err := NewRegistry(bad); err == nil {
		t.Fatal("invalid preset must be rejected")
	}
	if err := (&Registry{procs: map[string]Process{}}).add(Process{}); err == nil {
		t.Fatal("empty name must be rejected")
	}
}

// TestDerivedNodesShrinkMonotonically sanity-checks the node ordering the
// cross-node comparison relies on: tighter nodes have smaller pitch and
// higher resistivity, and the variability budgets never grow.
func TestDerivedNodesShrinkMonotonically(t *testing.T) {
	procs := Default().Processes()
	for i := 1; i < len(procs); i++ {
		a, b := procs[i-1], procs[i]
		if b.M1.Pitch >= a.M1.Pitch {
			t.Errorf("%s pitch %v not below %s pitch %v", b.Name, b.M1.Pitch, a.Name, a.M1.Pitch)
		}
		if b.M1.Rho <= a.M1.Rho {
			t.Errorf("%s rho %v not above %s rho %v", b.Name, b.M1.Rho, a.Name, a.M1.Rho)
		}
		if b.Var.CD3Sigma > a.Var.CD3Sigma || b.Var.OL3Sigma > a.Var.OL3Sigma {
			t.Errorf("%s variation budgets grew over %s", b.Name, a.Name)
		}
	}
}

// TestDefaultRegistryShared: Default builds the shipped registry once and
// hands every caller the same one, which concurrent lookups may read
// (run under -race to check the sharing).
func TestDefaultRegistryShared(t *testing.T) {
	if a, b := Default(), Default(); a != b {
		t.Fatal("Default built two registries")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := Default().Names()[i%3]
			p, err := Default().Lookup(strings.ToLower(name))
			if err == nil && p.Name != name {
				err = fmt.Errorf("Lookup(%q) returned %s", strings.ToLower(name), p.Name)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
