package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/report"
)

// TestMain lets the test binary stand in for the mpvar command: with
// MPVAR_ARGS set (one argument per line) it runs main on them and exits,
// so runMpvar can observe real exit codes.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MPVAR_ARGS"); ok {
		os.Args = append([]string{"mpvar"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMpvar runs mpvar with args in a child process and returns its exit
// code and standard error.
func runMpvar(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), "MPVAR_ARGS="+strings.Join(args, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestRetiredFastseedRefused: the retired PCG stream's -fastseed flag is
// unknown to both run verbs (exit 2), and reduce refuses an artifact a
// codec-1 build wrote (exit 1).
func TestRetiredFastseedRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-fastseed", "fig5"},
		{"shard", "-fastseed", "-index", "0", "-of", "1", "fig5"},
	} {
		if code, stderr := runMpvar(t, args...); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -fastseed") {
			t.Errorf("mpvar %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr)
		}
	}
	codec1, err := filepath.Abs(filepath.Join("..", "..", "internal", "core", "testdata", "fig5-streamcodec1.shard1-of2"))
	if err != nil {
		t.Fatal(err)
	}
	if code, stderr := runMpvar(t, "reduce", codec1); code != 1 || !strings.Contains(stderr, "stream codec version 1, want 2") {
		t.Errorf("mpvar reduce of a codec-1 artifact: exit %d, stderr %q", code, stderr)
	}
}

// TestUsageGeneratedFromRegistry pins the self-describing usage: every
// registered workload appears with its summary, with the utilities and
// the global flags after it.
func TestUsageGeneratedFromRegistry(t *testing.T) {
	fs := directFlagSet()
	var b strings.Builder
	usage(fs, &b)
	out := b.String()
	for _, want := range []string{
		"table1", "mcspicex", "workloads", "all", // registry entries
		"gds", "deck", "help", // utilities
		"-format", "-smoke", "-list", // flags
	} {
		if !strings.Contains(out, want) {
			t.Errorf("usage missing %q:\n%s", want, out)
		}
	}
}

// TestHelpUtilities: the usage text lists gds/deck/help, so help must
// describe them instead of answering "unknown workload".
func TestHelpUtilities(t *testing.T) {
	for name := range utilities {
		var b strings.Builder
		if err := helpWorkload(name, &b); err != nil || !strings.Contains(b.String(), "mpvar "+name) {
			t.Fatalf("help %s: %v\n%s", name, err, b.String())
		}
	}
}

// TestDefaultsNormalizedForFlagBinding pins the Register/CLI contract:
// every registered default already has its kind's native type, so the
// flag-binding type assertions (ps.Default.(int) …) cannot panic.
func TestDefaultsNormalizedForFlagBinding(t *testing.T) {
	for _, wl := range exp.Workloads() {
		for _, ps := range wl.Params {
			var ok bool
			switch ps.Kind {
			case exp.IntParam:
				_, ok = ps.Default.(int)
			case exp.FloatParam:
				_, ok = ps.Default.(float64)
			case exp.BoolParam:
				_, ok = ps.Default.(bool)
			case exp.StringParam:
				_, ok = ps.Default.(string)
			}
			if !ok {
				t.Errorf("%s.%s: default %v (%T) not normalized to %v",
					wl.Name, ps.Name, ps.Default, ps.Default, ps.Kind)
			}
		}
	}
}

// TestHelpWorkload renders one workload's schema-derived description.
func TestHelpWorkload(t *testing.T) {
	var b strings.Builder
	if err := helpWorkload("mcspicex", &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"-sizes string", "16,64,256,1024", "preferred -samples budget: 120", "-smoke overrides"} {
		if !strings.Contains(out, want) {
			t.Errorf("help missing %q:\n%s", want, out)
		}
	}
	if err := helpWorkload("bogus", &b); err == nil || !strings.Contains(err.Error(), "table1") {
		t.Fatalf("unknown workload help must list the registry, got %v", err)
	}
	b.Reset()
	if err := helpWorkload("table1", &b); err != nil || !strings.Contains(b.String(), "no workload parameters") {
		t.Fatalf("parameterless help drifted: %v\n%s", err, b.String())
	}
}

// directFlagSet returns a flag set carrying the direct verb's flags: the
// run flags plus -format, -smoke and -list.
func directFlagSet() *flag.FlagSet {
	format, smoke, list := "text", false, false
	fs := flag.NewFlagSet("mpvar", flag.ContinueOnError)
	defaultRunFlags().register(fs)
	directFlags(&format, &smoke, &list)(fs)
	return fs
}

// TestGlobalsTwoPassParse pins the two-pass flag scheme: re-registering
// on a second FlagSet keeps pass-one values as defaults, and both passes
// contribute to the seen set.
func TestGlobalsTwoPassParse(t *testing.T) {
	g := defaultRunFlags()
	fs1 := flag.NewFlagSet("mpvar", flag.ContinueOnError)
	g.register(fs1)
	if err := fs1.Parse([]string{"-samples", "8", "mcspice", "-n", "16"}); err != nil {
		t.Fatal(err)
	}
	if fs1.Arg(0) != "mcspice" || g.samples != 8 {
		t.Fatalf("pass one drifted: arg %q samples %d", fs1.Arg(0), g.samples)
	}
	fs2 := flag.NewFlagSet("mpvar mcspice", flag.ContinueOnError)
	g.register(fs2)
	if err := fs2.Parse(fs1.Args()[1:]); err != nil {
		t.Fatal(err)
	}
	if g.samples != 8 || g.n != 16 {
		t.Fatalf("pass two lost values: samples %d n %d", g.samples, g.n)
	}
	seen := map[string]bool{}
	fs1.Visit(func(f *flag.Flag) { seen[f.Name] = true })
	fs2.Visit(func(f *flag.Flag) { seen[f.Name] = true })
	if !seen["samples"] || !seen["n"] || seen["ol"] {
		t.Fatalf("seen set drifted: %v", seen)
	}
	// Any run flag can feed a same-named workload parameter through the
	// flag.Getter interface — not just a hand-picked subset.
	for name, want := range map[string]any{"n": 16, "samples": 8, "thk": 0.0, "ol": 8.0, "workers": 0, "process": "N10"} {
		if got := fs2.Lookup(name).Value.(flag.Getter).Get(); got != want {
			t.Fatalf("run flag feed for %s = %v (%T), want %v", name, got, got, want)
		}
	}
	// The parameter binder defines flags only for parameters that are not
	// already on the set: "n" stays the run flag, "sizes" gets its own,
	// and only explicitly set parameters are collected.
	wl := exp.Workload{Params: []exp.ParamSpec{
		{Name: "n", Kind: exp.IntParam, Default: 64},
		{Name: "sizes", Kind: exp.StringParam, Default: "16,64"},
		{Name: "cv", Kind: exp.BoolParam, Default: false},
	}}
	fs3 := directFlagSet()
	nFlag := fs3.Lookup("n")
	explicit := bindParams(fs3, wl)
	if fs3.Lookup("n") != nFlag || fs3.Lookup("sizes") == nil || fs3.Lookup("format") == nil {
		t.Fatal("binder redefined a global or skipped a schema parameter")
	}
	if err := fs3.Parse([]string{"-n", "32", "-sizes", "8,16"}); err != nil {
		t.Fatal(err)
	}
	seen = map[string]bool{}
	fs3.Visit(func(f *flag.Flag) { seen[f.Name] = true })
	got := explicit(seen)
	if len(got) != 2 || got["n"] != 32 || got["sizes"] != "8,16" {
		t.Fatalf("explicit parameters %v, want n=32 sizes=8,16 only", got)
	}
	// An explicit parameter spelling enters even where the schema lacks
	// it, so Normalize refuses it instead of the run ignoring it.
	fs4 := directFlagSet()
	explicit = bindParams(fs4, exp.Workload{})
	if err := fs4.Parse([]string{"-ol", "5", "-samples", "3"}); err != nil {
		t.Fatal(err)
	}
	seen = map[string]bool{}
	fs4.Visit(func(f *flag.Flag) { seen[f.Name] = true })
	if got := explicit(seen); len(got) != 1 || got["ol"] != 5.0 {
		t.Fatalf("explicit parameters %v, want ol=5 only", got)
	}
}

// TestOneRunPath: the direct verb runs exactly the core.RunSpec its
// command line names. Its JSON body equals the spec's own rendered run
// and a 1-of-1 shard plus reduce of the same run, whichever flags come
// before the workload name.
func TestOneRunPath(t *testing.T) {
	for _, c := range []struct {
		args  []string // the direct verb's command line
		shard []string // the same run for `mpvar shard` (nil = args)
		spec  core.RunSpec
	}{
		{args: []string{"-samples", "300", "-n", "32", "fig5"},
			spec: core.RunSpec{Workload: "fig5", Samples: 300, Params: exp.Params{"n": 32}}},
		{args: []string{"-samples", "300", "-ol", "5", "fig5"},
			spec: core.RunSpec{Workload: "fig5", Samples: 300, Params: exp.Params{"ol": 5.0}}},
		{args: []string{"-process", "n7", "-samples", "300", "fig5"},
			spec: core.RunSpec{Workload: "fig5", Process: "N7", Samples: 300}},
		{args: []string{"-smoke", "-n", "8", "mcspice"}, shard: []string{"-samples", "4", "-n", "8", "mcspice"},
			spec: core.RunSpec{Workload: "mcspice", Samples: 4, Params: exp.Params{"n": 8}}},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			res, err := c.spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := res.Write(&want, report.FormatJSON); err != nil {
				t.Fatal(err)
			}
			oldArgs := os.Args
			os.Args = append([]string{"mpvar", "-format", "json"}, c.args...)
			direct := captureStdout(t, main)
			os.Args = oldArgs
			if !bytes.Equal(direct, want.Bytes()) {
				t.Errorf("direct verb diverged from the spec's run:\n got %q\nwant %q", direct, want.Bytes())
			}
			shardArgs := c.shard
			if shardArgs == nil {
				shardArgs = c.args
			}
			path := filepath.Join(t.TempDir(), "run.shard")
			shardMain(append([]string{"-o", path}, shardArgs...))
			reduced := captureStdout(t, func() { reduceMain([]string{"-format", "json", path}) })
			if !bytes.Equal(reduced, want.Bytes()) {
				t.Errorf("1-of-1 shard + reduce diverged from the spec's run:\n got %q\nwant %q", reduced, want.Bytes())
			}
		})
	}
}

// TestRunPathRefusals: command lines no run id can name fail before any
// work, on both verbs. The retired -lumped ablation is an unknown flag
// (exit 2); a parameter spelling the workload's schema lacks, a negative
// budget and a parameter value out of its range are refused by
// Normalize (exit 1). The gds and deck dumps refuse every flag they
// would ignore (exit 1) and still run with the ones they honor: -process,
// and -n on deck (exit 0).
func TestRunPathRefusals(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-lumped", "table2"}, 2, "flag provided but not defined: -lumped"},
		{[]string{"-ol", "5", "table1"}, 1, `takes no parameters, got "ol"`},
		{[]string{"shard", "-ol", "5", "table1"}, 1, `takes no parameters, got "ol"`},
		{[]string{"-thk", "2", "fig5"}, 1, `no parameter "thk" (valid: n, ol)`},
		{[]string{"-samples", "-1", "fig5"}, 1, "samples must not be negative"},
		{[]string{"shard", "-samples", "-5", "fig5"}, 1, "samples must not be negative"},
		{[]string{"-samples", "3000", "-n", "-5", "fig5"}, 1, "param n must be at least 1, got -5"},
		{[]string{"-n", "0", "fig5"}, 1, "param n must be at least 1, got 0"},
		{[]string{"-n", "-5", "sens"}, 1, "param n must be at least 1"},
		{[]string{"-n", "-3", "nodes"}, 1, "param n must be at least 1"},
		{[]string{"shard", "-n", "0", "fig5"}, 1, "param n must be at least 1"},
		{[]string{"-ol", "-5", "fig5"}, 1, "param ol must not be negative"},
		{[]string{"-thk", "-2", "ext"}, 1, "param thk must not be negative"},
		{[]string{"-samples", "2", "mcspice", "-sizes", "16,16"}, 1, "repeated array size 16"},
		{[]string{"-format", "json", "gds"}, 1, "gds honors only -process; refusing -format"},
		{[]string{"-ol", "5", "-thk", "2", "-samples", "7", "deck", "-n", "8"}, 1, "refusing -ol, -samples, -thk"},
		{[]string{"-format", "csv", "deck"}, 1, "deck honors only -process and -n; refusing -format"},
		{[]string{"deck", "-seed", "5", "-smoke"}, 1, "refusing -seed, -smoke"},
		{[]string{"-n", "8", "gds"}, 1, "refusing -n"},
		{[]string{"-process", "N7", "gds"}, 0, ""},
		{[]string{"deck", "-n", "8"}, 0, ""},
	} {
		if code, stderr := runMpvar(t, c.args...); code != c.code || !strings.Contains(stderr, c.want) {
			t.Errorf("mpvar %s: exit %d, stderr %q; want exit %d naming %q", strings.Join(c.args, " "), code, stderr, c.code, c.want)
		}
	}
}

// TestProgressPrinter drives the stderr progress callback through a
// restart (a second stream with lower done) without panicking.
func TestProgressPrinter(t *testing.T) {
	fn := progressPrinter()
	for done := 0; done <= 100; done += 10 {
		fn(done, 100)
	}
	fn(5, 50) // new stream restarts the percentage tracking
	fn(50, 50)
}
