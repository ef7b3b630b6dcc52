package spice

import (
	"fmt"
	"math/rand"
	"testing"

	"mpsram/internal/circuit"
	"mpsram/internal/device"
	"mpsram/internal/tech"
)

// FuzzNetlistReset drives the engine-reuse contract with random parameter
// mutations on two random topologies: a netlist rebuilt in place
// (circuit.Netlist.Reset) and re-targeted through spice.Engine.Reset must
// produce transients bit-for-bit identical to a fresh New on an
// identically built netlist. The resident engine bounces from the first
// ladder depth to the second and back, so the compiled-topology cache is
// fuzzed on both a miss and a hit after invalidation. Any divergence
// means the scratch reuse leaked state between runs.
func FuzzNetlistReset(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(2015))
	nm := device.NewNMOS(tech.N10().FEOL)

	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		draw := func(segs int) dischargeParams {
			return dischargeParams{
				segs: segs,
				r:    50 * (1 + 3*rng.Float64()),
				c:    1e-15 * (1 + 4*rng.Float64()),
				w:    20e-9 * (1 + 2*rng.Float64()),
				rpre: 1e6 * (1 + 9*rng.Float64()),
			}
		}
		segsA, segsB := 1+rng.Intn(4), 1+rng.Intn(4)
		pA, pB, pC := draw(segsA), draw(segsB), draw(segsA)
		const tEnd, dt = 20e-12, 0.25e-12

		run := func(e *Engine, probes []circuit.NodeID) (*Result, error) {
			res, err := e.Transient(tEnd, dt, probes, nil)
			if err != nil {
				return nil, err
			}
			return snapshotResult(res), nil
		}

		// Reused path: one netlist object rebuilt in place, one engine
		// re-targeted with Reset after simulating mutation A.
		nl := circuit.New()
		probesA := buildDischarge(nl, nm, pA)
		resident, err := New(nl, Options{})
		if err != nil {
			t.Skipf("New rejected circuit A: %v", err)
		}
		if _, err := resident.Transient(tEnd, dt, probesA, nil); err != nil {
			t.Skipf("transient A failed: %v", err)
		}
		prev := segsA
		for i, p := range []dischargeParams{pB, pC} {
			// Reference: fresh netlist + fresh engine per mutation.
			nlRef := circuit.New()
			probesRef := buildDischarge(nlRef, nm, p)
			fresh, err := New(nlRef, Options{})
			if err != nil {
				t.Skipf("fresh New rejected circuit: %v", err)
			}
			want, wantErr := run(fresh, probesRef)

			nl.Reset()
			probes := buildDischarge(nl, nm, p)
			if err := resident.Reset(nl, Options{}); err != nil {
				t.Fatalf("Engine.Reset: %v", err)
			}
			got, gotErr := run(resident, probes)

			label := fmt.Sprintf("fuzz reset %d (segs %d→%d)", i, prev, p.segs)
			prev = p.segs
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: fresh err=%v, reused err=%v", label, wantErr, gotErr)
			}
			if wantErr == nil {
				requireIdenticalResults(t, label, want, got)
			}
		}
	})
}
