package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/sram"
	"mpsram/internal/tech"
)

func testEnv() Env {
	return Env{Proc: tech.N10(), Cap: extract.SakuraiTamaru{}}
}

// testSizes keeps the unit tests fast; the full DOE runs in the exp tests
// and the bench harness.
var testSizes = []int{16, 64}

func fullPlan(sizes ...int) *Plan {
	pl := NewPlan()
	// Fig. 4: nominal + worst case per option per size.
	pl.AddNominal(sizes...)
	for _, o := range litho.Options {
		pl.AddWorstCase(o, sizes...)
	}
	// Table II: nominal per size — duplicates of Fig. 4's nominals.
	pl.AddNominal(sizes...)
	// Table III: worst case per option per size — duplicates of Fig. 4.
	for _, o := range litho.Options {
		pl.AddWorstCase(o, sizes...)
	}
	return pl
}

func TestPlanDedup(t *testing.T) {
	pl := fullPlan(testSizes...)
	// Unique transients: one nominal per size plus one worst case per
	// option per size.
	want := len(testSizes) * (1 + len(litho.Options))
	if pl.Len() != want {
		t.Fatalf("plan size %d, want %d", pl.Len(), want)
	}
	// Nominal points dedupe across options.
	pl.Add(Point{Option: litho.SADP, Kind: Nominal, N: testSizes[0]})
	pl.Add(Point{Option: litho.LE3, Kind: Nominal, N: testSizes[0]})
	if pl.Len() != want {
		t.Fatalf("nominal dedup broken: plan size %d, want %d", pl.Len(), want)
	}
	opts := pl.worstCaseOptions()
	if len(opts) != len(litho.Options) {
		t.Fatalf("worstCaseOptions %v", opts)
	}
	// The job order is canonical regardless of declaration order.
	a := fullPlan(testSizes...).jobs()
	rev := NewPlan()
	for _, o := range []litho.Option{litho.EUV, litho.SADP, litho.LE3} {
		rev.AddWorstCase(o, testSizes[1], testSizes[0])
	}
	rev.AddNominal(testSizes[1], testSizes[0])
	b := rev.jobs()
	if len(a) != len(b) {
		t.Fatalf("job counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// oneShotTdp is the reference penalty read the sweep must reproduce: the
// parasitics extracted from scratch (sram.NominalParasitics +
// extract.VarRatios) and the nominal and perturbed reads each on a fresh
// sram.BuildColumn + Column.MeasureTd, with no builder or pooled session.
func oneShotTdp(env Env, o litho.Option, s litho.Sample, n int) (tdp, td, tdnom float64, err error) {
	nom, err := sram.NominalParasitics(env.Proc, env.Cap)
	if err != nil {
		return 0, 0, 0, err
	}
	r, err := extract.VarRatios(env.Proc, o, s, env.Cap)
	if err != nil {
		return 0, 0, 0, err
	}
	read := func(cp sram.CellParasitics) (float64, error) {
		col, err := sram.BuildColumn(env.Proc, n, cp, env.Build)
		if err != nil {
			return 0, err
		}
		res, err := col.MeasureTd(cp, env.Sim)
		return res.Td, err
	}
	if tdnom, err = read(nom); err != nil {
		return 0, 0, 0, err
	}
	if td, err = read(nom.Scale(r)); err != nil {
		return 0, 0, 0, err
	}
	return (td/tdnom - 1) * 100, td, tdnom, nil
}

func TestRunMatchesSerialOneShotPath(t *testing.T) {
	env := testEnv()
	res, err := Run(context.Background(), env, fullPlan(testSizes...), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs() != len(testSizes)*(1+len(litho.Options)) {
		t.Fatalf("jobs run %d", res.Jobs())
	}
	for _, o := range litho.Options {
		wc, err := extract.WorstCase(env.Proc, o, env.Cap)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := res.WorstCase(o)
		if !ok || got.Sample != wc.Sample || got.Ratios != wc.Ratios {
			t.Fatalf("%v: worst case mismatch", o)
		}
		for _, n := range testSizes {
			wantTdp, wantTd, wantNom, err := oneShotTdp(env, o, wc.Sample, n)
			if err != nil {
				t.Fatal(err)
			}
			if td, ok := res.Td(Point{Option: o, Kind: WorstCase, N: n}); !ok || td != wantTd {
				t.Fatalf("%v n=%d: td %g want %g", o, n, td, wantTd)
			}
			if nom, ok := res.TdNom(n); !ok || nom != wantNom {
				t.Fatalf("n=%d: tdnom %g want %g", n, nom, wantNom)
			}
			if tdp, ok := res.TdpPct(o, n); !ok || tdp != wantTdp {
				t.Fatalf("%v n=%d: tdp %g want %g", o, n, tdp, wantTdp)
			}
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	env := testEnv()
	ctx := context.Background()
	base, err := Run(ctx, env, fullPlan(testSizes...), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		res, err := Run(ctx, env, fullPlan(testSizes...), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Jobs() != base.Jobs() {
			t.Fatalf("workers=%d: job count %d vs %d", workers, res.Jobs(), base.Jobs())
		}
		for p, want := range base.td {
			if got := res.td[p]; got != want {
				t.Fatalf("workers=%d %v: td %g != %g", workers, p, got, want)
			}
		}
	}
}

func TestRunCancellation(t *testing.T) {
	env := testEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, env, fullPlan(64, 256, 1024), Config{Workers: 2})
	if err == nil {
		t.Fatal("canceled sweep must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	// Prompt return: the pre-canceled sweep must not run the whole
	// 1024-cell DOE (which takes seconds).
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("canceled sweep took %v", d)
	}
}

func TestRunProgressSerializedAndComplete(t *testing.T) {
	env := testEnv()
	var calls []int
	cfg := Config{
		Workers: 4,
		Progress: func(done, total int) {
			if total != len(testSizes)*(1+len(litho.Options)) {
				t.Errorf("total %d", total)
			}
			calls = append(calls, done) // engine serializes calls
		},
	}
	if _, err := Run(context.Background(), env, fullPlan(testSizes...), cfg); err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("no progress reported")
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] <= calls[i-1] {
			t.Fatalf("progress not strictly increasing: %v", calls)
		}
	}
	if calls[len(calls)-1] != len(testSizes)*(1+len(litho.Options)) {
		t.Fatalf("final progress %d", calls[len(calls)-1])
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(context.Background(), testEnv(), NewPlan(), Config{}); err == nil {
		t.Fatal("empty plan must fail")
	}
	if _, err := Run(context.Background(), Env{Proc: tech.N10()}, fullPlan(16), Config{}); err == nil {
		t.Fatal("nil cap model must fail")
	}
}

func TestRunSurfacesJobErrorWithPointContext(t *testing.T) {
	env := testEnv()
	// A forced sub-picosecond window guarantees the sense threshold is
	// never reached, so every transient fails; the sweep must fail fast
	// and name the failing point rather than return zeros.
	env.Sim = sram.SimOptions{TEnd: 1e-15}
	_, err := Run(context.Background(), env, fullPlan(16, 64, 256, 1024), Config{Workers: 2})
	if err == nil {
		t.Fatal("failing transients must error the sweep")
	}
	if !strings.Contains(err.Error(), "sweep:") || !strings.Contains(err.Error(), "n=") {
		t.Fatalf("error lacks point context: %v", err)
	}
}

// TestResultAccessorsAndPointStrings covers the result views and the
// human-readable point labels on a tiny single-size run.
func TestResultAccessorsAndPointStrings(t *testing.T) {
	pl := NewPlan()
	pl.AddNominal(16)
	pl.AddWorstCase(litho.EUV, 16)
	res, err := Run(context.Background(), testEnv(), pl, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nominal().Rbl <= 0 {
		t.Fatal("nominal parasitics missing")
	}
	if _, ok := res.TdNom(16); !ok {
		t.Fatal("nominal td missing")
	}
	if _, ok := res.TdNom(64); ok {
		t.Fatal("n=64 was not in the plan")
	}
	if _, ok := res.TdpPct(litho.EUV, 16); !ok {
		t.Fatal("EUV tdp missing")
	}
	if _, ok := res.TdpPct(litho.LE3, 16); ok {
		t.Fatal("LE3 worst case was not planned")
	}
	if _, ok := res.WorstCase(litho.LE3); ok {
		t.Fatal("LE3 corner search was not planned")
	}
	for p, want := range map[Point]string{
		{Kind: Nominal, N: 16}:                      "nominal n=16",
		{Option: litho.EUV, Kind: WorstCase, N: 16}: "EUV worst-case n=16",
	} {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
