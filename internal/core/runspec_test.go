package core

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
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

// keyPreimageOracle renders the key pre-image with fmt and strings.Join,
// the reference appendKeyPreimage and exp.AppendCanonicalParams are held
// to: keys sorted, ints in decimal, floats via strconv 'g' at full
// precision, bools as true/false, strings quoted.
func keyPreimageOracle(n RunSpec) string {
	keys := make([]string, 0, len(n.Params))
	for k := range n.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		var v string
		switch x := n.Params[k].(type) {
		case int:
			v = strconv.Itoa(x)
		case float64:
			v = strconv.FormatFloat(x, 'g', -1, 64)
		case bool:
			v = strconv.FormatBool(x)
		case string:
			v = strconv.Quote(x)
		default:
			v = fmt.Sprintf("%v", x)
		}
		parts[i] = k + "=" + v
	}
	return fmt.Sprintf("mpsram-run|engine=%s|workload=%s|process=%s|seed=%d|samples=%d|params=%s",
		EngineVersion, n.Workload, n.Process, n.Seed, n.Samples, strings.Join(parts, ","))
}

// TestRunSpecKeyPinned pins the key pre-image and digest of specs that
// cover every parameter kind and spelling: ints, full-precision floats
// in both of the 'g' format's notations, bools, quoted strings with
// spaces, a padded process name and an explicit seed and budget. Run ids, cache entries
// and shard artifacts all hang on them, so the next key change has to be
// deliberate (and announced in API.md). Each digest was taken with
// keyPreimageOracle's renderer before the append-style one existed.
func TestRunSpecKeyPinned(t *testing.T) {
	for _, c := range []struct {
		spec      RunSpec
		pre, want string
	}{
		{RunSpec{Workload: "fig5", Params: exp.Params{"n": 256}},
			"mpsram-run|engine=v1|workload=fig5|process=N10|seed=2015|samples=10000|params=n=256,ol=0",
			"5a80cf767aa973f4c53df4129935b14ac264555275fcca7c0c9d3e2faf3e7af7"},
		{RunSpec{Workload: "fig5", Params: exp.Params{"n": 1024}},
			"mpsram-run|engine=v1|workload=fig5|process=N10|seed=2015|samples=10000|params=n=1024,ol=0",
			"54f5736bb0db7bc65f9a63398ab8aa021affdc1ca86c13113ad857b676ec126a"},
		{RunSpec{Workload: "fig5", Params: exp.Params{"ol": 1.0 / 3.0}},
			"mpsram-run|engine=v1|workload=fig5|process=N10|seed=2015|samples=10000|params=n=64,ol=0.3333333333333333",
			"f2be9234f58a937ba0493211b733691b5ac2d0147a98c1ed418fd4d2ba128156"},
		{RunSpec{Workload: "fig5", Params: exp.Params{"ol": 2.5e-7, "n": 1024}},
			"mpsram-run|engine=v1|workload=fig5|process=N10|seed=2015|samples=10000|params=n=1024,ol=2.5e-07",
			"d8445b4b5c27e7ac97d406a297c5b7444242811e7e576312e0e3ba0a8ac1bfd3"},
		{RunSpec{Workload: "ext", Params: exp.Params{"thk": 2.0}},
			"mpsram-run|engine=v1|workload=ext|process=N10|seed=2015|samples=10000|params=n=64,thk=2",
			"b6a3ee084a7d4ca8a2ba5d553455f97f0b41e888b225b9a9b61db87faca8ae15"},
		{RunSpec{Workload: "ext", Params: exp.Params{"thk": 1e6}},
			"mpsram-run|engine=v1|workload=ext|process=N10|seed=2015|samples=10000|params=n=64,thk=1e+06",
			"624db3a7af7650fd24f9639401bbcecb2dd230839c4f89e0b7dd5311d7007478"},
		{RunSpec{Workload: "mcspicex", Params: exp.Params{"sizes": " 8, 16"}},
			`mpsram-run|engine=v1|workload=mcspicex|process=N10|seed=2015|samples=120|params=adaptive=false,cv=false,sizes=" 8, 16"`,
			"88150eb6b3b0c5e3c2f327726bb5140ef30d62202c862df056f2c4e6293128e8"},
		{RunSpec{Workload: "mcspice", Params: exp.Params{"cv": true}},
			`mpsram-run|engine=v1|workload=mcspice|process=N10|seed=2015|samples=200|params=adaptive=false,cv=true,n=64,sizes=""`,
			"f215c6329c316d4f5a14dd433fe843f34df664360fc298ac62c1b92f3654b981"},
		{RunSpec{Workload: "fig5", Process: " n7 ", Seed: 7, Samples: 300},
			"mpsram-run|engine=v1|workload=fig5|process=N7|seed=7|samples=300|params=n=64,ol=0",
			"a8ae6c09ae566946edb621c27a0e5b715e41eb386b5b6285505ea53932bf99fb"},
		{RunSpec{Workload: "mcspicenodes", Params: exp.Params{"ol": 1.0 / 3.0, "adaptive": true}, Process: " n7 ", Seed: -3, Samples: 12},
			"mpsram-run|engine=v1|workload=mcspicenodes|process=N7|seed=-3|samples=12|params=adaptive=true,n=64,ol=0.3333333333333333",
			"fda811b639a08f1cf01bcb516c87ab9a065c59cf6e1556c3cc66e828cf45e856"},
		{RunSpec{Workload: "table1"},
			"mpsram-run|engine=v1|workload=table1|process=N10|seed=2015|samples=10000|params=",
			"052d93b163e9dd2298077ed1819ce941dfe33d8bde093c431d0cb3381043fa75"},
	} {
		n, k, err := c.spec.Resolve()
		if err != nil {
			t.Fatalf("Resolve(%+v): %v", c.spec, err)
		}
		if got := string(n.appendKeyPreimage(nil)); got != c.pre {
			t.Errorf("key pre-image\n got %s\nwant %s", got, c.pre)
		}
		if got := keyPreimageOracle(n); got != c.pre {
			t.Errorf("oracle pre-image\n got %s\nwant %s", got, c.pre)
		}
		if k != c.want {
			t.Errorf("%s: key %s, want %s", c.pre, k, c.want)
		}
		if got := key(t, c.spec); got != c.want {
			t.Errorf("%s: Key %s, want %s", c.pre, got, c.want)
		}
	}
}

// paramsSink keeps TestResolveAllocations' reference map on the heap,
// as the map Resolve returns is.
var paramsSink exp.Params

// TestResolveAllocations holds the key path to its one pass: resolving a
// spec allocates its normalized parameter map and the returned key, and
// renders and hashes the pre-image on the stack. The map's own count
// moves between Go releases, so the test builds the same two-entry map
// and measures it; the bound adds the key and one allocation to spare.
func TestResolveAllocations(t *testing.T) {
	const resolveAllocs = 2
	spec := RunSpec{Workload: "fig5", Params: exp.Params{"n": float64(64)}}
	got := testing.AllocsPerRun(100, func() {
		if _, _, err := spec.Resolve(); err != nil {
			t.Fatal(err)
		}
	})
	params := testing.AllocsPerRun(100, func() {
		p := make(exp.Params, 2)
		p["n"], p["ol"] = 64, 0.0
		paramsSink = p
	})
	t.Logf("Resolve %v allocations, its parameter map alone %v", got, params)
	if got > params+resolveAllocs {
		t.Errorf("Resolve allocated %v times per call, want at most %v (the parameter map) + %d",
			got, params, resolveAllocs)
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
		{RunSpec{Workload: "fig5", Params: exp.Params{"ol": math.NaN()}}, "param ol must not be negative, got NaN"},
		{RunSpec{Workload: "ext", Params: exp.Params{"thk": math.Inf(-1)}}, "param thk must not be negative, got -Inf"},
		// JSON has no +Inf and no integer past 2^53 on every decoder's
		// float64 path, so serve and the shard fabric could never carry
		// such a spec: it gets no key either.
		{RunSpec{Workload: "fig5", Params: exp.Params{"ol": math.Inf(1)}}, "param ol must be finite, got +Inf"},
		{RunSpec{Workload: "ext", Params: exp.Params{"thk": math.Inf(1)}}, "param thk must be finite, got +Inf"},
		{RunSpec{Workload: "fig5", Params: exp.Params{"n": 1<<53 + 1}}, "param n must be at most 2^53"},
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
