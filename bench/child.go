package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// engineWorkers is the Monte-Carlo and SPICE sweep worker count of
	// every child: the benchmark box has two cores, and fixing the count
	// keeps runs comparable across machines with more.
	engineWorkers = 2
	// minSetups is the fewest times an untraced child sets its workload
	// up; it goes on until setupBudget has passed too. setup_s is the
	// median, which keeps one slow first page-in from deciding it, and
	// the budget spreads the set-ups over several of the half-second
	// swings in speed the benchmark box shows (README.md), so a short
	// set-up is not timed only at one phase of them.
	minSetups   = 5
	setupBudget = 3 * time.Second
)

// env is what a workload sees of its run.
type env struct {
	seed     int64
	seconds  time.Duration
	setupFor time.Duration // set up at least this long (and minSetups times)
	tr       *tracer       // nil while untraced
	root     string        // repository root: goldens are read from here
	scratch  string        // per-run scratch directory, removed at exit
	pins     map[string]string
	log      io.Writer
}

// workload is one benchmark workload: a closed loop over a fixed kind
// of job, run for the measurement window.
type workload struct {
	name string
	op   string // what ops_per_s counts: transient, trial or request
	open func(e *env) (session, error)
}

// session is a set-up workload, ready to measure.
type session interface {
	// measure runs jobs back to back until deadline (at least one) and
	// checks each job's output as it lands.
	measure(w *window, deadline time.Time) error
	// verify runs the checks that need the whole run, untimed.
	verify() error
	close()
}

// window accumulates what one measurement window did.
type window struct {
	ops       float64              // operations completed (see workload.op)
	jobs      []float64            // job latencies, ms
	lat       map[string][]float64 // per-class request latencies, ms (serve-mix)
	attempted int                  // jobs or requests issued
	failed    int                  // jobs or requests that failed or answered wrong
	drawn     int                  // Monte-Carlo draws attempted
	rejected  int                  // Monte-Carlo draws rejected
}

func (w *window) latency(class string, ms float64) {
	if w.lat == nil {
		w.lat = map[string][]float64{}
	}
	w.lat[class] = append(w.lat[class], ms)
}

// metric is one reported number.
type metric struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Source string  `json:"source,omitempty"` // per-layer: "workload" or "probe"
}

// runReport is a child's result, sent to the parent as one JSON line.
type runReport struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Error     string   `json:"error,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Window    float64  `json:"window_s"`
	Metrics   []metric `json:"metrics"` // end-to-end (untraced) or per-layer (traced)
}

// stretch is what one timed stretch of a run did, and what it cost.
type stretch struct {
	w              window
	wall, cpu      float64 // seconds
	bytes, mallocs uint64  // heap allocation
}

// measureFor runs the session's jobs for d and records the stretch.
func measureFor(s session, d time.Duration) (stretch, error) {
	runtime.GC()
	var st stretch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	err := s.measure(&st.w, t0.Add(d))
	st.wall = time.Since(t0).Seconds()
	st.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	st.bytes, st.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	if err == nil && st.w.ops == 0 {
		err = errors.New("no operation completed")
	}
	return st, err
}

// setUp opens the workload at least n times and for at least budget,
// closing every session but the last, and returns that one with the
// set-up times in seconds.
func setUp(e *env, wl workload, n int, budget time.Duration) (session, []float64, error) {
	var (
		s     session
		times []float64
		spent time.Duration
	)
	for len(times) < n || spent < budget {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = wl.open(e); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	return s, times, nil
}

// runChild sets the workload up, measures it, checks the outputs and
// reports. Any failed check leaves Correct false and names the failure
// in Error.
//
// An untraced run measures one window and reports its end-to-end
// figures. It times half its set-ups before the window and half after
// it, so that one slow stretch of the box does not decide their median.
//
// A traced run sets up once, untimed, and measures the first half of the
// window untraced, for the end-to-end figures the per-layer list carries
// (e2e.*, proc.*), then the second half traced, for the layers.
func runChild(e *env, wl workload) runReport {
	rep := runReport{Workload: wl.name, Seed: e.seed, Traced: e.tr != nil}
	tr := e.tr
	e.tr = nil // set-ups and the end-to-end stretch are untraced
	var err error
	if tr == nil {
		err = runUntraced(e, wl, &rep)
	} else {
		err = runTraced(e, wl, tr, &rep)
	}
	e.tr = tr
	if err != nil {
		rep.Error = err.Error()
		rep.Attempted = max(rep.Attempted, 1)
		rep.Failed = max(rep.Failed, 1)
		return rep
	}
	rep.Correct = true
	return rep
}

func runUntraced(e *env, wl workload, rep *runReport) error {
	s, setups, err := setUp(e, wl, minSetups-minSetups/2, e.setupFor/2)
	if err != nil {
		return err
	}
	st, err := measureFor(s, e.seconds)
	rep.Attempted, rep.Failed, rep.Window = st.w.attempted, st.w.failed, st.wall
	figs := figures(st)
	if err == nil {
		err = s.verify()
	}
	s.close()
	if err != nil {
		return err
	}
	s, more, err := setUp(e, wl, minSetups/2, e.setupFor/2)
	if err != nil {
		return err
	}
	s.close()
	setups = append(setups, more...)
	rep.Metrics = append([]metric{{Name: "setup_s", Layer: "e2e", Unit: "s", Value: median(setups), N: len(setups)}}, figs...)
	return nil
}

func runTraced(e *env, wl workload, tr *tracer, rep *runReport) error {
	s, _, err := setUp(e, wl, 1, 0)
	if err != nil {
		return err
	}
	defer s.close()
	d := e.seconds / 2
	st, err := measureFor(s, d)
	rep.Attempted, rep.Failed, rep.Window = st.w.attempted, st.w.failed, st.wall
	if err != nil {
		return err
	}
	figs := figures(st)
	for _, name := range []string{"ops_per_s", "failed_frac"} {
		m, _ := find(figs, name)
		tr.observe("e2e."+name, m.Value)
	}
	for _, ms := range st.w.jobs {
		tr.observe("e2e.job_ms", ms)
	}
	for _, name := range []string{"cpu_util", "max_rss_mb"} {
		m, _ := find(figs, name)
		tr.observe("proc."+name, m.Value)
	}

	e.tr = tr
	traced, err := measureFor(s, d)
	rep.Attempted += traced.w.attempted
	rep.Failed += traced.w.failed
	rep.Window += traced.wall
	if err == nil {
		err = s.verify()
	}
	if err != nil {
		return err
	}
	tr.observe("trace.ops_per_s", traced.w.ops/traced.wall)
	if err := runProbes(e, missingProbes(analyze(tr))); err != nil {
		return err
	}
	rep.Metrics = layerResults(analyze(tr))
	for _, m := range rep.Metrics {
		if m.N == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("per-layer metric %s has no measurement", m.Name)
		}
	}
	return nil
}

// figures are the end-to-end figures of an untraced stretch but
// setup_s: the ones BENCHMARK.json gates (endToEnd) and, printed beside
// them, the timings and ratios too unsteady on a shared box to gate
// (README.md). An op is a read transient, a Monte-Carlo trial or an
// HTTP request (workload.op). The peak RSS is the process's so far.
func figures(st stretch) []metric {
	w := &st.w
	x := []metric{
		{Name: "alloc_kb_per_op", Unit: "KiB", Value: float64(st.bytes) / 1024 / w.ops, N: int(w.ops)},
		{Name: "allocs_per_op", Unit: "count", Value: float64(st.mallocs) / w.ops, N: int(w.ops)},
		{Name: "ops_per_s", Unit: "1/s", Value: w.ops / st.wall, N: int(w.ops)},
		{Name: "job_ms_p50", Unit: "ms", Value: median(w.jobs), N: len(w.jobs)},
		{Name: "failed_frac", Unit: "ratio", Value: float64(w.failed) / float64(max(w.attempted, 1)), N: w.attempted},
		{Name: "cpu_util", Unit: "ratio", Value: st.cpu / st.wall, N: 1},
		{Name: "max_rss_mb", Unit: "MiB", Value: maxRSSMB(), N: 1},
	}
	if w.drawn > 0 {
		x = append(x, metric{Name: "reject_frac", Unit: "ratio", Value: float64(w.rejected) / float64(w.drawn), N: w.drawn})
	}
	if p, v, ok := tail(w.jobs); ok {
		x = append(x, metric{Name: "job_ms_" + pctName(p), Unit: "ms", Value: v, N: len(w.jobs)})
	}
	for _, class := range []string{"hit", "cold", "fanout"} {
		lat := w.lat[class]
		if len(lat) == 0 {
			continue
		}
		x = append(x, metric{Name: class + "_ms_p50", Unit: "ms", Value: median(lat), N: len(lat)})
		if p, v, ok := tail(lat); ok {
			x = append(x, metric{Name: class + "_ms_" + pctName(p), Unit: "ms", Value: v, N: len(lat)})
		}
	}
	for i := range x {
		x[i].Layer = "e2e"
	}
	return x
}

// probes are the layer probes, keyed by the group names of the
// per-layer catalog. Each calls one layer's public functions directly
// on inputs made from the run's seed.
var probes = map[string]func(e *env) error{
	"spice":    probeSpice,
	"sparse":   probeSparse,
	"sweep":    probeSweep,
	"analytic": probeAnalytic,
	"mc":       probeMC,
	"core":     probeCore,
	"serve":    probeServe,
}

// runProbes measures, after the traced window, the layers the workload
// itself never called, so every per-layer metric is measured on every
// workload. Probe records are marked and only ever fill gaps.
func runProbes(e *env, groups []string) error {
	e.tr.probe.Store(true)
	defer e.tr.probe.Store(false)
	for _, g := range groups {
		if err := probes[g](e); err != nil {
			return fmt.Errorf("%s probe: %w", g, err)
		}
	}
	return nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// maxRSSMB is the process's peak resident set so far, in MiB (Linux
// reports it in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// jobSeed derives the seed of job j from the run seed. Job 0 runs at the
// run seed itself, so a run at the paper seed starts with the pinned job.
func jobSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// findRoot locates the repository root — the directory holding the
// goldens — from the working directory: the root itself when run through
// run.sh, or its parent when run from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, goldenDir)); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("repository root not found: no " + goldenDir + " here or in the parent directory")
}

// layerOf is the layer a metric name belongs to: its first dotted
// component, or "e2e" for an undotted end-to-end name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "e2e"
}
