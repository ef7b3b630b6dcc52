package sweep

import (
	"context"
	"errors"
	"slices"
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

// allJobs is the transient count of a worst-case sweep over sizes: one
// nominal plus one worst case per option at every size.
func allJobs(sizes []int) int { return len(sizes) * (1 + len(litho.Options)) }

// TestJobOrder pins the run order: sizes largest first whatever order
// they are given in and, at each size, every option's worst case in
// litho.Options order before the nominal; without worst cases, only the
// nominals.
func TestJobOrder(t *testing.T) {
	var want []job
	for _, n := range []int{64, 16} {
		for _, o := range litho.Options {
			want = append(want, job{o: o, wc: true, n: n})
		}
		want = append(want, job{n: n})
	}
	for _, sizes := range [][]int{{16, 64}, {64, 16}} {
		if got := jobList(sizes, true); !slices.Equal(got, want) {
			t.Fatalf("sizes %v: jobs %v, want %v", sizes, got, want)
		}
		if got, want := jobList(sizes, false), []job{{n: 64}, {n: 16}}; !slices.Equal(got, want) {
			t.Fatalf("sizes %v, nominals only: jobs %v, want %v", sizes, got, want)
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
	res, err := Run(context.Background(), env, testSizes, true, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs() != allJobs(testSizes) {
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
			if td, ok := res.Td(o, n); !ok || td != wantTd {
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
	base, err := Run(ctx, env, testSizes, true, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		res, err := Run(ctx, env, testSizes, true, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Jobs() != base.Jobs() {
			t.Fatalf("workers=%d: job count %d vs %d", workers, res.Jobs(), base.Jobs())
		}
		for i, j := range base.jobs {
			if got, want := res.tds[i], base.tds[i]; res.jobs[i] != j || got != want {
				t.Fatalf("workers=%d %v: td %g != %g", workers, j, got, want)
			}
		}
	}
}

func TestRunCancellation(t *testing.T) {
	env := testEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, env, []int{64, 256, 1024}, true, Config{Workers: 2})
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
			if total != allJobs(testSizes) {
				t.Errorf("total %d", total)
			}
			calls = append(calls, done) // engine serializes calls
		},
	}
	if _, err := Run(context.Background(), env, testSizes, true, cfg); err != nil {
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
	if calls[len(calls)-1] != allJobs(testSizes) {
		t.Fatalf("final progress %d", calls[len(calls)-1])
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(context.Background(), testEnv(), nil, true, Config{}); err == nil {
		t.Fatal("empty size list must fail")
	}
	if _, err := Run(context.Background(), Env{Proc: tech.N10()}, []int{16}, true, Config{}); err == nil {
		t.Fatal("nil cap model must fail")
	}
}

func TestRunSurfacesJobErrorWithPointContext(t *testing.T) {
	env := testEnv()
	// A forced sub-picosecond window guarantees the sense threshold is
	// never reached, so every transient fails; the sweep must fail fast
	// and name the failing read rather than return zeros.
	env.Sim = sram.SimOptions{TEnd: 1e-15}
	_, err := Run(context.Background(), env, []int{16, 64, 256, 1024}, true, Config{Workers: 2})
	if err == nil {
		t.Fatal("failing transients must error the sweep")
	}
	if !strings.Contains(err.Error(), "sweep:") || !strings.Contains(err.Error(), "n=") {
		t.Fatalf("error lacks point context: %v", err)
	}
}

// TestResultAccessorsAndPointStrings covers the result views and the
// human-readable job labels on tiny single-size runs.
func TestResultAccessorsAndPointStrings(t *testing.T) {
	res, err := Run(context.Background(), testEnv(), []int{16}, true, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nominal().Rbl <= 0 {
		t.Fatal("nominal parasitics missing")
	}
	if _, ok := res.TdNom(64); ok {
		t.Fatal("n=64 was not in the sweep")
	}
	if _, ok := res.TdpPct(litho.EUV, 16); !ok {
		t.Fatal("EUV tdp missing")
	}
	nom, err := Run(context.Background(), testEnv(), []int{16}, false, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nom.TdNom(16); !ok {
		t.Fatal("nominal td missing")
	}
	if _, ok := nom.TdpPct(litho.LE3, 16); ok {
		t.Fatal("the nominal-only sweep ran no LE3 worst case")
	}
	if _, ok := nom.WorstCase(litho.LE3); ok {
		t.Fatal("the nominal-only sweep ran no LE3 corner search")
	}
	for j, want := range map[job]string{
		{n: 16}:                         "nominal n=16",
		{o: litho.EUV, wc: true, n: 16}: "EUV worst-case n=16",
	} {
		if got := j.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
