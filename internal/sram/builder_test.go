package sram

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

// TestColumnBuilderMatchesOneShotPath: a session reused across sizes and
// calls returns exactly what a fresh builder per call (the one-shot path)
// returns.
func TestColumnBuilderMatchesOneShotPath(t *testing.T) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	b := NewColumnBuilder(p, cm)
	wc, err := extract.WorstCase(p, litho.SADP, cm)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 64} {
		got, err := b.SimulateTd(litho.SADP, wc.Sample, n, BuildOptions{}, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewColumnBuilder(p, cm).SimulateTd(litho.SADP, wc.Sample, n, BuildOptions{}, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d: builder td %g != one-shot td %g", n, got, want)
		}
	}
	// The penalty agrees too (and exercises the nominal cache twice).
	tdp1, td1, nom1, err := b.TdPenaltyPct(litho.SADP, wc.Sample, 16, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tdp2, td2, nom2, err := NewColumnBuilder(p, cm).TdPenaltyPct(litho.SADP, wc.Sample, 16, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tdp1 != tdp2 || td1 != td2 || nom1 != nom2 {
		t.Fatalf("penalty mismatch: (%g,%g,%g) vs (%g,%g,%g)", tdp1, td1, nom1, tdp2, td2, nom2)
	}
}

func TestColumnBuilderScratchReuse(t *testing.T) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	b := NewColumnBuilder(p, cm)
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	// Reference netlist from the allocating path.
	ref, err := BuildColumn(p, 32, nom, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Build something bigger first so the second build runs in dirty,
	// larger-capacity scratch.
	if _, err := b.Build(64, nom, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	col, err := b.Build(32, nom, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Netlist != b.scratch.nl {
		t.Fatal("Build must reuse the builder scratch netlist")
	}
	if got, want := col.Netlist.WriteSpice("x"), ref.Netlist.WriteSpice("x"); got != want {
		t.Fatalf("reused-scratch netlist differs from fresh build:\n%s\nvs\n%s", got, want)
	}
	if col.BLSense != ref.BLSense || col.BLFar != ref.BLFar || col.Q != ref.Q {
		t.Fatal("probe node ids differ between fresh and reused builds")
	}
}

func TestColumnBuilderRatioCache(t *testing.T) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	b := NewColumnBuilder(p, cm)
	s := litho.Sample{CDEUV: 1e-9}
	r1, err := b.Ratios(litho.EUV, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := extract.VarRatios(p, litho.EUV, s, cm)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != want {
		t.Fatalf("cached ratios %+v != direct %+v", r1, want)
	}
	r2, err := b.Ratios(litho.EUV, s)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Fatal("second lookup must serve the cached value")
	}
	if len(b.ratios) != 1 {
		t.Fatalf("ratio cache size %d, want 1", len(b.ratios))
	}
}

// TestMeasureTdSteadyStateAllocations pins a warm ColumnBuilder.MeasureTd
// at zero allocations on both integrators: the pooled session's netlist
// rebuild reuses its labels and storage, its engine reuses the compiled
// topology, the value arrays and the engine-owned Result and waveforms,
// and the transient loops allocate nothing per step.
func TestMeasureTdSteadyStateAllocations(t *testing.T) {
	p := tech.N10()
	b := NewColumnBuilder(p, extract.SakuraiTamaru{})
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sopt SimOptions
	}{
		{"fixed-step", SimOptions{}},
		{"adaptive", SimOptions{Adaptive: true}},
	} {
		measure := func(n int) {
			if _, err := b.MeasureTd(n, nom, BuildOptions{}, tc.sopt); err != nil {
				t.Fatal(err)
			}
		}
		// Warm both column shapes: n = 16 has its own topology, n = 64
		// the one every larger array shares.
		measure(64)
		measure(16)
		got := testing.AllocsPerRun(2, func() { measure(64) })
		t.Logf("%s: warm MeasureTd(n=64): %v allocations per transient", tc.name, got)
		if got != 0 {
			t.Errorf("%s: warm MeasureTd(n=64) allocates %v times per transient, want 0", tc.name, got)
		}
		// Bouncing between the two shapes re-targets the cached topologies.
		got = testing.AllocsPerRun(2, func() { measure(16); measure(64) }) / 2
		t.Logf("%s: MeasureTd bouncing n=16/64: %v allocations per transient", tc.name, got)
		if got != 0 {
			t.Errorf("%s: MeasureTd bouncing n=16/64 allocates %v times per transient, want 0", tc.name, got)
		}
	}
}

// TestPooledSessionsBitIdenticalUnderConcurrency: goroutines that
// interleave MeasureTd calls over processes, array sizes, integrators and
// build options share the pooled sessions, so every read re-targets a
// session last used for a different circuit, often under another
// process. Each td must still equal, bit for bit, a fresh BuildColumn +
// Column.MeasureTd on the same inputs.
func TestPooledSessionsBitIdenticalUnderConcurrency(t *testing.T) {
	type point struct {
		p    tech.Process
		n    int
		cp   CellParasitics
		bopt BuildOptions
		sopt SimOptions
	}
	cm := extract.SakuraiTamaru{}
	sims := []SimOptions{
		{Method: spice.Trapezoidal},
		{Method: spice.BackwardEuler},
		{Adaptive: true},
	}
	var pts []point
	for _, p := range []tech.Process{tech.N10(), tech.N7(), tech.N5()} {
		nom, err := NominalParasitics(p, cm)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{16, 64, 1024} {
			for _, sopt := range sims {
				// Alternate the two build variants and a perturbed draw
				// so neighbouring points differ in topology and values.
				k := len(pts)
				bopt := BuildOptions{Lumped: k%2 == 0, VssTapBothEnds: k%2 == 1}
				cp := nom
				if k%4 < 2 {
					cp = nom.Scale(extract.Ratios{Rvar: 1.07, Cvar: 0.96, RvssVar: 1.12})
				}
				pts = append(pts, point{p, n, cp, bopt, sopt})
			}
		}
	}
	want := make([]float64, len(pts))
	for i, pt := range pts {
		col, err := BuildColumn(pt.p, pt.n, pt.cp, pt.bopt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := col.MeasureTd(pt.cp, pt.sopt)
		if err != nil {
			t.Fatalf("%s n=%d: fresh read: %v", pt.p.Name, pt.n, err)
		}
		want[i] = res.Td
	}
	const workers = 3
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			builders := map[string]*ColumnBuilder{}
			// Each worker walks the points from its own offset, so the
			// workers' reads interleave on the shared sessions.
			for k := range pts {
				i := (k + w*len(pts)/workers) % len(pts)
				pt := pts[i]
				b, ok := builders[pt.p.Name]
				if !ok {
					b = NewColumnBuilder(pt.p, cm)
					builders[pt.p.Name] = b
				}
				got, err := b.MeasureTd(pt.n, pt.cp, pt.bopt, pt.sopt)
				if err != nil {
					errs[w] = fmt.Errorf("%s n=%d %+v %+v: %w", pt.p.Name, pt.n, pt.bopt, pt.sopt, err)
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					errs[w] = fmt.Errorf("%s n=%d %+v %+v: pooled td %v != fresh td %v",
						pt.p.Name, pt.n, pt.bopt, pt.sopt, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
