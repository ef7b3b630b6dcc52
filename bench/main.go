// Command mpbench is the repository's benchmark: four closed-loop
// workloads over the SPICE-in-the-loop Monte-Carlo, the SPICE sweep,
// the analytic Monte-Carlo and the HTTP service, each measured end to end
// and, in a separate traced run, layer by layer. Every job's output is
// checked; a failed check makes the run exit non-zero.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh                          # all workloads, seed 2015
//	bash bench/run.sh --workload spicemc --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh -trace out.json          # per-layer metrics + spans
//	bash bench/run.sh -sets 3 -out results.json
//
// The parent process runs each workload in a fresh child of itself, one
// child at a time, with GOMAXPROCS=2. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads, metrics and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the measurement window; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 15

// workloads are the benchmark's workloads, in run order. README.md says
// why each was chosen.
var workloads = []workload{
	{name: "spicemc", op: "transient", open: openSpiceMC},
	{name: "spicesweep", op: "transient", open: openSpiceSweep},
	{name: "analytic-mc", op: "trial", open: openAnalyticMC},
	{name: "serve-mix", op: "request", open: openServeMix},
}

// metricDef declares a gated metric.
type metricDef struct{ name, unit, better string }

// endToEnd are the end-to-end metrics BENCHMARK.json gates, in its
// order: the ones that repeat from run to run on a shared two-core box.
// Untraced runs also print the throughput, latencies, reject and failure
// fractions, CPU use and peak RSS, which wander by a tenth to a quarter
// between runs there (README.md); BENCHMARK.json lists them per layer
// instead (e2e.*, proc.*, serve.latency_ms.*), as traced runs report
// them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"allocs_per_op", "count", "lower"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0", "1" or the spans output path
	sets     int
	out      string
	child    bool
	spans    string // child only: where to write the spans
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all): "+strings.Join(names(workloads), ", "))
	fs.Int64Var(&o.seed, "seed", pinSeed, "workload seed; set i of -sets runs at seed+i")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measurement window per run, seconds")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: traced run (first half of the window untraced, second half traced), per-layer metrics, spans to .bench_build/spans.json; a path: the same, spans to that file")
	fs.IntVar(&o.sets, "sets", 1, "repeat every run this many times and report medians and quartiles across the sets")
	fs.StringVar(&o.out, "out", "", "also write every metric as JSON rows to this file")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.StringVar(&o.spans, "spans", "", "internal: child's spans file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.sets < 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "mpbench: want flags only, -sets ≥ 1 and -seconds > 0")
		return 2
	}
	if o.workload != "" {
		if _, ok := lookupWorkload(o.workload); !ok {
			fmt.Fprintf(stderr, "mpbench: unknown workload %q (have %s)\n", o.workload, strings.Join(names(workloads), ", "))
			return 2
		}
	}
	if o.child {
		return childMain(o, stdout, stderr)
	}
	return parentMain(o, stdout, stderr)
}

func names(ws []workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------- child

func childMain(o options, stdout, stderr io.Writer) int {
	wl, _ := lookupWorkload(o.workload)
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "mpbench:", err)
		return 1
	}
	// Under TMPDIR, which run.sh points into .bench_build. The scratch
	// directory then becomes TMPDIR itself, so the temporary directories
	// the code under test makes and leaves (every serve.Server's shard
	// worker makes one) go when the scratch directory does.
	scratch, err := os.MkdirTemp("", "mpbench-"+wl.name+"-")
	if err == nil {
		err = os.Setenv("TMPDIR", scratch)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mpbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{
		seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)), setupFor: setupBudget,
		root: root, scratch: scratch, pins: pins, log: stderr,
	}
	if o.trace != "0" {
		e.tr = newTracer()
	}
	rep := runChild(e, wl)
	if e.tr != nil && o.spans != "" {
		if err := e.tr.write(o.spans, wl.name, o.seed); err != nil && rep.Correct {
			rep.Correct, rep.Error = false, "writing spans: "+err.Error()
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "mpbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !rep.Correct {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------- parent

func parentMain(o options, stdout, stderr io.Writer) int {
	sel := workloads
	if o.workload != "" {
		w, _ := lookupWorkload(o.workload)
		sel = []workload{w}
	}
	traced := o.trace != "0"
	spans := o.trace
	if spans == "1" {
		spans = filepath.Join(".bench_build", "spans.json")
	}
	if traced {
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			fmt.Fprintln(stderr, "mpbench:", err)
			return 1
		}
	}
	nproc := runtime.NumCPU()
	fmt.Fprintf(stdout, "mpbench: %s, seed %d, %g s windows, %d set(s), nproc %d, GOMAXPROCS=2 per child\n",
		strings.Join(names(sel), " "), o.seed, o.seconds, o.sets, nproc)

	var (
		runs  []runReport
		parts []string
	)
	for set := 0; set < o.sets; set++ {
		seed := o.seed + int64(set)
		for _, wl := range sel {
			part := ""
			if traced {
				part = fmt.Sprintf("%s.%s.%d.part", spans, wl.name, seed)
				parts = append(parts, part)
			}
			r := spawn(o, wl.name, seed, part, stderr)
			printRun(stdout, r)
			runs = append(runs, r)
		}
	}
	if traced {
		printOverhead(stdout, runs)
	}
	if o.sets > 1 {
		printSets(stdout, runs, loadBounds(stderr))
	}
	ok := true
	if traced {
		if err := mergeSpans(spans, parts); err != nil {
			fmt.Fprintln(stderr, "mpbench: spans:", err)
			ok = false
		} else {
			fmt.Fprintf(stdout, "spans: %s\n", spans)
		}
	}
	if o.out != "" {
		if err := writeResults(o.out, runs, o.seed, nproc); err != nil {
			fmt.Fprintln(stderr, "mpbench: -out:", err)
			ok = false
		}
	}
	line := finalLine(runs, len(sel) > 1, traced)
	ok = ok && line.Correct
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "mpbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !ok {
		return 1
	}
	return 0
}

// spawn runs one workload in a fresh child of this executable and
// waits for it. A traced child writes its spans to spans; an untraced
// one has spans "".
func spawn(o options, name string, seed int64, spans string, stderr io.Writer) runReport {
	traced := spans != ""
	r := runReport{Workload: name, Seed: seed, Traced: traced, Attempted: 1, Failed: 1}
	exe, err := os.Executable()
	if err != nil {
		r.Error = err.Error()
		return r
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		args = append(args, "-spans", spans)
	}
	// The child's own work takes the window plus set-up, checks and
	// probes — tens of seconds; the limit only stops a hung child.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		r.Correct, r.Error = false, fmt.Sprintf("child %s: %v, no report: %v", name, runErr, err)
		return r
	}
	if runErr != nil && r.Correct {
		r.Correct, r.Error = false, fmt.Sprintf("child %s: %v", name, runErr)
	}
	return r
}

func printRun(w io.Writer, r runReport) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	status := "correct"
	if !r.Correct {
		status = "FAILED: " + r.Error
	}
	wl, _ := lookupWorkload(r.Workload)
	fmt.Fprintf(w, "\n%s  seed %d  %s  window %.2f s  attempted %d  failed %d  op = one %s  %s\n",
		r.Workload, r.Seed, mode, r.Window, r.Attempted, r.Failed, wl.op, status)
	for _, m := range r.Metrics {
		note := ""
		switch {
		case m.Source == "probe":
			note = "  (probe)"
		case !r.Traced && gated(m.Name):
			note = "  (gated)"
		}
		fmt.Fprintf(w, "  %-26s %14.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
}

// printOverhead sets each traced run's throughput in its traced half
// beside that in its untraced half.
func printOverhead(w io.Writer, runs []runReport) {
	fmt.Fprintln(w, "\ntracing overhead (ops_per_s untraced → traced half):")
	for _, r := range runs {
		u, okU := find(r.Metrics, "e2e.ops_per_s")
		v, okV := find(r.Metrics, "trace.ops_per_s")
		if okU && okV {
			fmt.Fprintf(w, "  %-12s seed %-6d %12.6g → %12.6g 1/s  (%+.1f %%)\n",
				r.Workload, r.Seed, u.Value, v.Value, (v.Value/u.Value-1)*100)
		}
	}
}

func gated(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	return false
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// series gathers, per workload and metric in first-seen order, the
// values of the runs that reported it.
type series struct {
	workload string
	m        metric // the first run's metric: name, unit, layer, n
	values   []float64
}

func collect(runs []runReport) []*series {
	var out []*series
	idx := map[string]*series{}
	add := func(r runReport, m metric) {
		k := r.Workload + "\x00" + m.Name
		s, ok := idx[k]
		if !ok {
			s = &series{workload: r.Workload, m: m}
			idx[k] = s
			out = append(out, s)
		}
		s.values = append(s.values, m.Value)
	}
	for _, r := range runs {
		if !r.Correct {
			continue
		}
		for _, m := range r.Metrics {
			add(r, m)
		}
	}
	return out
}

// printSets reports each metric's median and quartiles across sets and
// flags a gated metric whose spread exceeds its bound.
func printSets(w io.Writer, runs []runReport, bounds map[string]float64) {
	fmt.Fprintln(w, "\nacross sets (spread = (q3 - q1) / median):")
	fmt.Fprintf(w, "  %-12s %-26s %14s %14s %14s %8s %7s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, s := range collect(runs) {
		q1, q3 := quartiles(s.values)
		sp := spread(s.values)
		bound, flag := "", ""
		if b, ok := bounds[s.m.Name]; ok {
			bound = fmt.Sprintf("%.3f", b)
			if sp > b {
				flag = "  SPREAD ABOVE BOUND"
			}
		}
		fmt.Fprintf(w, "  %-12s %-26s %14.6g %14.6g %14.6g %8.4f %7s%s\n",
			s.workload, s.m.Name, median(s.values), q1, q3, sp, bound, flag)
	}
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json at the
// repository root; without it, -sets reports spreads unflagged.
func loadBounds(stderr io.Writer) map[string]float64 {
	root, err := findRoot()
	if err != nil {
		return nil
	}
	bf, err := readBenchFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "mpbench: bounds:", err)
		return nil
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// mergeSpans joins the children's span documents into one JSON array.
func mergeSpans(path string, parts []string) error {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, p := range parts {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(b)
	}
	buf.WriteString("]\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	var errs []error
	for _, p := range parts {
		errs = append(errs, os.Remove(p))
	}
	return errors.Join(errs...)
}

// resultRow is one line of the -out file. With one set, value and n are
// the run's own (n counts the samples behind the value) and q1 = q3 =
// value; with several, value is the median over sets, q1 and q3 their
// quartiles and n the number of sets.
type resultRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Layer    string  `json:"layer"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	N        int     `json:"n"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Seed     int64   `json:"seed"`
	NProc    int     `json:"nproc"`
}

func writeResults(path string, runs []runReport, seed int64, nproc int) error {
	var rows []resultRow
	for _, s := range collect(runs) {
		row := resultRow{Workload: s.workload, Metric: s.m.Name, Layer: s.m.Layer, Unit: s.m.Unit,
			Value: median(s.values), N: s.m.N, Seed: seed, NProc: nproc}
		row.Q1, row.Q3 = quartiles(s.values)
		if len(s.values) > 1 {
			row.N = len(s.values)
		}
		rows = append(rows, row)
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type final struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

// finalLine is the machine-readable result: the end-to-end metrics of
// untraced runs, or the per-layer metrics of traced ones, as the median
// over sets. Several workloads key their metrics "workload/metric".
func finalLine(runs []runReport, multi, traced bool) final {
	want := gated
	if traced {
		want = func(string) bool { return true }
	}
	f := final{Correct: len(runs) > 0, Metrics: map[string]finalMetric{}}
	for _, r := range runs {
		f.Correct = f.Correct && r.Correct
		f.Attempted += r.Attempted
		f.Failed += r.Failed
	}
	for _, s := range collect(runs) {
		if !want(s.m.Name) {
			continue
		}
		key := s.m.Name
		if multi {
			key = s.workload + "/" + key
		}
		f.Metrics[key] = finalMetric{Value: median(s.values), Unit: s.m.Unit}
	}
	return f
}
