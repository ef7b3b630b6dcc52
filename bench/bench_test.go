package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/device"
	"mpsram/internal/litho"
)

// TestMain points TMPDIR at a directory of its own: the servers the
// tests start each leave an empty shard-worker directory there.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mpbench-test-")
	if err == nil {
		err = os.Setenv("TMPDIR", dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testEnv(t *testing.T, seed int64, traced bool) *env {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: seed, seconds: time.Millisecond, root: root, scratch: t.TempDir(), pins: pins, log: &bytes.Buffer{}}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// TestSmoke runs every workload for one job, untraced, and spicemc
// traced, which also runs every layer probe and the fidelity gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			rep := runChild(testEnv(t, pinSeed, false), wl)
			if !rep.Correct {
				t.Fatalf("%s: %s", wl.name, rep.Error)
			}
			for _, name := range []string{"setup_s", "alloc_kb_per_op", "allocs_per_op", "ops_per_s", "job_ms_p50"} {
				m, ok := find(rep.Metrics, name)
				if !ok || !(m.Value > 0) || m.N < 1 {
					t.Errorf("%s: metric %s = %+v, want a positive measurement", wl.name, name, m)
				}
			}
		})
	}
	t.Run("spicemc-traced", func(t *testing.T) {
		t.Parallel()
		wl, _ := lookupWorkload("spicemc")
		rep := runChild(testEnv(t, 11, true), wl)
		if !rep.Correct {
			t.Fatal(rep.Error)
		}
		if len(rep.Metrics) != len(layerMetrics) {
			t.Fatalf("%d per-layer metrics, want %d", len(rep.Metrics), len(layerMetrics))
		}
	})
}

// TestTamperedPinFails checks a run whose rendered output no longer
// matches its pinned digest fails and exits non-zero.
func TestTamperedPinFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a Fig. 5 job")
	}
	saved := pins["analytic-mc"]
	pins["analytic-mc"] = strings.Repeat("0", 64)
	defer func() { pins["analytic-mc"] = saved }()
	t.Setenv("TMPDIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run([]string{"-child", "-workload", "analytic-mc", "-seed", "2015", "-seconds", "0.001"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit 0 with a tampered pin; stderr: %s", stderr.String())
	}
	var rep runReport
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &rep); err != nil {
		t.Fatalf("no report on stdout: %v", err)
	}
	if rep.Correct || !strings.Contains(rep.Error, "pin") || rep.Failed < 1 {
		t.Fatalf("report = correct %v failed %d error %q, want a pin failure", rep.Correct, rep.Failed, rep.Error)
	}
}

// TestTamperedBodyFails checks the serve-mix hit check rejects a body
// that differs from the one first served, and the golden check a CSV
// that differs from its golden.
func TestTamperedBodyFails(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and runs a SPICE sweep")
	}
	s, err := openMix(testEnv(t, 5, false), serveProbe)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var w window
	if err := s.hitPhase(&w); err != nil {
		t.Fatalf("untampered hit phase: %v", err)
	}
	s.bodies[0] = bytes.Replace(s.bodies[0], []byte(`"id":"`), []byte(`"id":"0`), 1)
	if err := s.hitPhase(&w); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("tampered hit phase: err = %v, want a body mismatch", err)
	}

	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	goldens, err := readGoldens(root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunSpec{Workload: "spicetables"}.Run(core.WithWorkers(engineWorkers))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGoldens(res.Tables, goldens); err != nil {
		t.Fatalf("untampered goldens: %v", err)
	}
	goldens[1] = bytes.Replace(goldens[1], []byte("1"), []byte("2"), 1)
	if err := checkGoldens(res.Tables, goldens); err == nil {
		t.Fatal("a tampered golden passed")
	}
}

// TestFidelityGate checks the replay matches MeasureTd bit for bit and
// that the gate catches a replay that has drifted from it: here a read
// window sized from a pass gate of half the drive, which lengthens the
// window and so the time step.
func TestFidelityGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs SPICE transients")
	}
	env, err := defaultEnv()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newSpiceReplay(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.trial(newTracer(), 3, litho.EUV, 0); err != nil {
		t.Fatalf("faithful replay: %v", err)
	}
	weak := *device.NewNMOS(env.Proc.FEOL)
	weak.K /= 2
	r.nmos = &weak
	r.trials = 0 // the next trial is gated
	if _, err := r.trial(newTracer(), 3, litho.EUV, 1); err == nil || !strings.Contains(err.Error(), "fidelity") {
		t.Fatalf("drifted replay: err = %v, want a fidelity failure", err)
	}
}

// TestTail checks the percentile rule: the reported percentile is the
// highest candidate with at least ten samples beyond it.
func TestTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64 // 0 = no tail
	}{
		{0, 0}, {20, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		p, v, ok := tail(xs)
		if c.want == 0 {
			if ok {
				t.Errorf("n=%d: tail p%v, want none", c.n, p)
			}
			continue
		}
		if !ok || p != c.want {
			t.Errorf("n=%d: tail p%v ok=%v, want p%v", c.n, p, ok, c.want)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples beyond p%v, want ≥ 10", c.n, beyond, p)
		}
	}
}

// TestQuartiles checks the quartiles against Python's
// statistics.quantiles(xs, n=4) on the same inputs.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4}, 4, 4},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSelfTime checks a span's self time excludes the union of its
// children, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 50},
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
	}
	a := analyze(tr)
	if got := a.spans("root"); len(got) != 1 || got[0] != 100-40-10 {
		t.Fatalf("root self time %v, want 50", got)
	}
}

// TestBenchmarkFile checks BENCHMARK.json names exactly the workloads
// and metrics this program reports, with bounds in (0, 0.25] and the
// largest on setup_s.
func TestBenchmarkFile(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(bf.Command, " ") != "bash bench/run.sh" || strings.Join(bf.Paths, " ") != "bench" {
		t.Errorf("command %q paths %q", bf.Command, bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, want %d", bf.RunSeconds, defaultSeconds)
	}
	var got []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	if got, want := strings.Join(got, " "), strings.Join(names(workloads), " "); got != want {
		t.Errorf("workloads %q, want %q", got, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, want %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest (%v)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, want %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if d := layerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}
