package sram

import (
	"testing"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
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
		t.Fatal("Build must reuse the session scratch netlist")
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

// TestMeasureTdSteadyStateAllocations pins the allocation count of a warm
// ColumnBuilder.MeasureTd: the netlist rebuild reuses its labels and
// storage, the engine reuses its compiled topology and value arrays, and
// the transient loop allocates nothing per step. A per-step or per-element
// allocation coming back (hundreds per transient) fails this at once.
func TestMeasureTdSteadyStateAllocations(t *testing.T) {
	const maxAllocs = 32
	p := tech.N10()
	b := NewColumnBuilder(p, extract.SakuraiTamaru{})
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	measure := func(n int) {
		if _, err := b.MeasureTd(n, nom, BuildOptions{}, SimOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both column shapes: n = 16 has its own topology, n = 64 the
	// one every larger array shares.
	measure(64)
	measure(16)
	got := testing.AllocsPerRun(2, func() { measure(64) })
	t.Logf("warm MeasureTd(n=64): %v allocations per transient", got)
	if got > maxAllocs {
		t.Fatalf("warm MeasureTd(n=64) allocates %v times per transient, want ≤ %d", got, maxAllocs)
	}
	// Bouncing between the two shapes re-targets the cached topologies.
	got = testing.AllocsPerRun(2, func() { measure(16); measure(64) }) / 2
	t.Logf("MeasureTd bouncing n=16/64: %v allocations per transient", got)
	if got > maxAllocs {
		t.Fatalf("MeasureTd bouncing n=16/64 allocates %v times per transient, want ≤ %d", got, maxAllocs)
	}
}
