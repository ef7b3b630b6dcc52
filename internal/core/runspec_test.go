package core

import (
	"bytes"
	"strings"
	"testing"

	"mpsram/internal/exp"
	"mpsram/internal/mc"
)

func key(t *testing.T, s RunSpec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatalf("Key(%+v): %v", s, err)
	}
	return k
}

// TestRunSpecNormalizeDefaults pins the zero-value semantics: empty
// process → the N10 preset, seed 0 → the paper seed, samples 0 → the
// workload's budget hint (or the analytic default), params → the schema
// defaults.
func TestRunSpecNormalizeDefaults(t *testing.T) {
	n, err := RunSpec{Workload: "mcspice"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Process != "N10" || n.Seed != DefaultSeed || n.Samples != 200 {
		t.Fatalf("defaults drifted: %+v", n)
	}
	if n.Params.Int("n") != 64 || n.Params.String("sizes") != "" {
		t.Fatalf("params not default-filled: %v", n.Params)
	}
	// A workload without a Samples hint adopts the analytic default.
	n, err = RunSpec{Workload: "table4"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Samples != DefaultSamples {
		t.Fatalf("hintless budget drifted: %d", n.Samples)
	}
}

// TestRunSpecKeyCanonicalization is the cache-entry-splitting regression
// test: every spelling of the same run — omitted defaults, explicit
// defaults, JSON float64 integers, padded or case-folded process names —
// must hash to one key, and every field that changes results must change
// it.
func TestRunSpecKeyCanonicalization(t *testing.T) {
	base := key(t, RunSpec{Workload: "mcspice"})
	same := []RunSpec{
		{Workload: "mcspice", Params: exp.Params{"n": 64}},
		{Workload: "mcspice", Params: exp.Params{"n": float64(64), "sizes": ""}},
		{Workload: "mcspice", Seed: DefaultSeed},
		{Workload: "mcspice", Samples: 200}, // the hint, spelled out
		{Workload: "mcspice", Process: " n10 "},
		{Workload: " mcspice ", Process: "N10"},
	}
	for _, s := range same {
		if k := key(t, s); k != base {
			t.Errorf("spec %+v split the cache entry: %s != %s", s, k, base)
		}
	}
	different := []RunSpec{
		{Workload: "mcspice", Params: exp.Params{"n": 65}},
		{Workload: "mcspice", Seed: 1},
		{Workload: "mcspice", Samples: 100},
		{Workload: "mcspice", Process: "N7"},
		{Workload: "mcspicex"},
	}
	// Estimator mode is part of the cache identity: the cv/adaptive
	// params change the computation (paired estimator, adaptive
	// integrator), so identical sampling with a different estimator must
	// never alias a cached plain-estimator body.
	for _, est := range []exp.Params{
		{"cv": true},
		{"adaptive": true},
		{"cv": true, "adaptive": true},
	} {
		different = append(different, RunSpec{Workload: "mcspice", Params: est})
	}
	// And spelling the defaults out loud does not split the entry.
	if k := key(t, RunSpec{Workload: "mcspice", Params: exp.Params{"cv": false, "adaptive": false}}); k != base {
		t.Errorf("explicit default estimator split the cache entry: %s != %s", k, base)
	}
	seen := map[string]bool{base: true}
	for _, s := range different {
		k := key(t, s)
		if seen[k] {
			t.Errorf("spec %+v collided: %s", s, k)
		}
		seen[k] = true
	}
}

// TestRunSpecKeyPinned pins one spec's key pre-image and digest. Run
// ids, cache entries and shard artifacts all hang on them, so the next
// key change has to be deliberate (and announced in API.md).
func TestRunSpecKeyPinned(t *testing.T) {
	spec := RunSpec{Workload: "fig5", Params: exp.Params{"n": 256}}
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	const pre = "mpsram-run|engine=v1|workload=fig5|process=N10|seed=2015|samples=10000|params=n=256,ol=0"
	if got := n.canonical(); got != pre {
		t.Errorf("key pre-image\n got %s\nwant %s", got, pre)
	}
	const want = "5a80cf767aa973f4c53df4129935b14ac264555275fcca7c0c9d3e2faf3e7af7"
	if got := key(t, spec); got != want {
		t.Errorf("key %s, want %s", got, want)
	}
}

// TestRunSpecKeyErrors: the registries' valid-names texts surface
// through Normalize/Key so HTTP handlers can return them verbatim.
func TestRunSpecKeyErrors(t *testing.T) {
	if _, err := (RunSpec{Workload: "nope"}).Key(); err == nil ||
		!strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown workload: %v", err)
	}
	if _, err := (RunSpec{Workload: "table1", Process: "N3"}).Key(); err == nil ||
		!strings.Contains(err.Error(), "N10") {
		t.Fatalf("unknown process must list the registry: %v", err)
	}
	if _, err := (RunSpec{Workload: "fig5", Params: exp.Params{"bogus": 1}}).Key(); err == nil ||
		!strings.Contains(err.Error(), "valid: n, ol") {
		t.Fatalf("unknown param must list the schema: %v", err)
	}
	// A negative budget is refused, not defaulted to the hint's run.
	if _, err := (RunSpec{Workload: "fig5", Samples: -5}).Key(); err == nil ||
		!strings.Contains(err.Error(), "samples must not be negative") {
		t.Fatalf("negative samples: %v", err)
	}
	// Parameter values no run can mean are refused before a key exists.
	for _, c := range []struct {
		spec RunSpec
		want string
	}{
		{RunSpec{Workload: "fig5", Params: exp.Params{"n": -5}}, "param n must be at least 1"},
		{RunSpec{Workload: "fig5", Params: exp.Params{"n": 0}}, "param n must be at least 1"},
		{RunSpec{Workload: "nodes", Params: exp.Params{"n": -3}}, "param n must be at least 1"},
		{RunSpec{Workload: "fig5", Params: exp.Params{"ol": -5.0}}, "param ol must not be negative"},
		{RunSpec{Workload: "ext", Params: exp.Params{"thk": -2.0}}, "param thk must not be negative"},
		{RunSpec{Workload: "mcspice", Params: exp.Params{"sizes": "16,16"}}, "repeated array size 16"},
		{RunSpec{Workload: "mcspicex", Params: exp.Params{"sizes": "16,x"}}, `invalid array size "x"`},
	} {
		if _, err := c.spec.Key(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: %v, want an error naming %q", c.spec, err, c.want)
		}
	}
}

// TestRunSpecRun executes a cheap workload through the spec path and
// checks the configured environment actually reaches the study.
func TestRunSpecRun(t *testing.T) {
	res, err := RunSpec{Workload: "fig3"}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 || len(res.Text()) == 0 {
		t.Fatalf("fig3 result empty: %+v", res)
	}
	// Process, seed and budget reach the study: the spec's run renders
	// exactly like a hand-built study configured the same way.
	got, err := RunSpec{Workload: "fig5", Process: "n7", Seed: 7, Samples: 300}.Run()
	if err != nil {
		t.Fatal(err)
	}
	proc, err := LookupProcess("N7")
	if err != nil {
		t.Fatal(err)
	}
	study, err := NewStudy(WithProcess(proc), WithMC(mc.Config{Samples: 300, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := study.Run("fig5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, got), render(t, want)) {
		t.Fatalf("spec did not reach the study env:\n got %s\nwant %s", got.Text(), want.Text())
	}
}
