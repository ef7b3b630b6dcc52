package sram

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

// freshTd reads td on a fresh BuildColumn + Column.MeasureTd: a new
// column and a new engine, with no builder and no pooled session.
func freshTd(p tech.Process, n int, cp CellParasitics, bopt BuildOptions, sopt SimOptions) (float64, error) {
	col, err := BuildColumn(p, n, cp, bopt)
	if err != nil {
		return 0, err
	}
	res, err := col.MeasureTd(cp, sopt)
	if err != nil {
		return 0, err
	}
	return res.Td, nil
}

// oneShotTdp is the reference penalty read for option o under variation
// sample s at size n: the parasitics extracted from scratch
// (NominalParasitics + extract.VarRatios) and the nominal and perturbed
// reads each on a fresh column and engine (freshTd). It returns the
// paper's tdp figure (td/tdnom − 1)·100 with both read times.
func oneShotTdp(p tech.Process, cm extract.CapModel, o litho.Option, s litho.Sample, n int, bopt BuildOptions, sopt SimOptions) (tdp, td, tdnom float64, err error) {
	nom, err := NominalParasitics(p, cm)
	if err != nil {
		return 0, 0, 0, err
	}
	r, err := extract.VarRatios(p, o, s, cm)
	if err != nil {
		return 0, 0, 0, err
	}
	if tdnom, err = freshTd(p, n, nom, bopt, sopt); err != nil {
		return 0, 0, 0, err
	}
	if td, err = freshTd(p, n, nom.Scale(r), bopt, sopt); err != nil {
		return 0, 0, 0, err
	}
	return (td/tdnom - 1) * 100, td, tdnom, nil
}

// TestColumnBuilderMatchesOneShotPath: a builder reused across sizes and
// calls, reading on pooled sessions, returns exactly what the one-shot
// path (a fresh extraction, column and engine per read) returns.
func TestColumnBuilderMatchesOneShotPath(t *testing.T) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	b := NewColumnBuilder(p, cm)
	wc, err := extract.WorstCase(p, litho.SADP, cm)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{16, 64}
	nomTds, err := b.NominalTds(sizes, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	for j, n := range sizes {
		_, want, wantNom, err := oneShotTdp(p, cm, litho.SADP, wc.Sample, n, BuildOptions{}, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if nomTds[j] != wantNom {
			t.Fatalf("n=%d: builder nominal td %g != one-shot %g", n, nomTds[j], wantNom)
		}
		got, err := b.MeasureTd(n, nom.Scale(wc.Ratios), BuildOptions{}, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d: builder td %g != one-shot td %g", n, got, want)
		}
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
// build options share one builder per process and the pooled sessions, so
// every read re-targets a session last used for a different circuit,
// often under another process. Each td must still equal, bit for bit, a
// fresh BuildColumn + Column.MeasureTd on the same inputs. Between reads
// the goroutines also call one shared trial function, with and without a
// control, on the same seeded draws; each result must equal, bit for
// bit, the serial loop's.
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
	// One builder per process, built before the goroutines start and
	// shared by all of them.
	builders := map[string]*ColumnBuilder{}
	var pts []point
	for _, p := range []tech.Process{tech.N10(), tech.N7(), tech.N5()} {
		b := NewColumnBuilder(p, cm)
		builders[p.Name] = b
		nom, err := b.Nominal()
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
		td, err := freshTd(pt.p, pt.n, pt.cp, pt.bopt, pt.sopt)
		if err != nil {
			t.Fatalf("%s n=%d: fresh read: %v", pt.p.Name, pt.n, err)
		}
		want[i] = td
	}

	// The shared trial functions: LE3 on N10 at two small sizes, plain
	// and paired with a control.
	tb := builders[tech.N10().Name]
	sizes := []int{8, 16}
	nomTd, err := tb.NominalTds(sizes, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := func(n int, r extract.Ratios) float64 { return float64(n) * r.Rvar * r.Cvar }
	plain, err := tb.TrialFunc(litho.LE3, sizes, nomTd, nil, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	paired, err := tb.TrialFunc(litho.LE3, sizes, nomTd, ctrl, BuildOptions{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// trialOut is one seeded draw through both trial functions.
	type trialOut struct {
		ok, pok   bool
		y, py, px [2]float64
	}
	trial := func(rng *rand.Rand, d int) (o trialOut) {
		rng.Seed(2015 + int64(d))
		o.ok = plain(rng, o.y[:], nil)
		rng.Seed(2015 + int64(d))
		o.pok = paired(rng, o.py[:], o.px[:])
		return o
	}
	sameBits := func(a, b [2]float64) bool {
		return math.Float64bits(a[0]) == math.Float64bits(b[0]) && math.Float64bits(a[1]) == math.Float64bits(b[1])
	}
	same := func(a, b trialOut) bool {
		return a.ok == b.ok && a.pok == b.pok && sameBits(a.y, b.y) && sameBits(a.py, b.py) && sameBits(a.px, b.px)
	}
	const draws = 6
	wantTrial := make([]trialOut, draws)
	accepted := 0
	for d := range wantTrial {
		o := trial(rand.New(rand.NewSource(0)), d)
		if o.ok != o.pok || !sameBits(o.y, o.py) {
			t.Fatalf("draw %d: the control changed the SPICE observable: %+v", d, o)
		}
		if o.ok {
			accepted++
		}
		wantTrial[d] = o
	}
	if accepted == 0 {
		t.Fatal("every draw was rejected; the trial comparison is vacuous")
	}

	const workers = 3
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0))
			// Each worker walks the points from its own offset, so the
			// workers' reads interleave on the shared sessions.
			for k := range pts {
				i := (k + w*len(pts)/workers) % len(pts)
				pt := pts[i]
				got, err := builders[pt.p.Name].MeasureTd(pt.n, pt.cp, pt.bopt, pt.sopt)
				if err != nil {
					errs[w] = fmt.Errorf("%s n=%d %+v %+v: %w", pt.p.Name, pt.n, pt.bopt, pt.sopt, err)
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					errs[w] = fmt.Errorf("%s n=%d %+v %+v: pooled td %v != fresh td %v",
						pt.p.Name, pt.n, pt.bopt, pt.sopt, got, want[i])
					return
				}
				if k < draws {
					d := (k + w) % draws
					if got := trial(rng, d); !same(got, wantTrial[d]) {
						errs[w] = fmt.Errorf("draw %d: concurrent trial %+v != serial %+v", d, got, wantTrial[d])
						return
					}
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
