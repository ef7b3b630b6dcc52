package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded on the benchmark's side
// of the call. Spans of one operation (a Monte-Carlo trial, an HTTP
// request, a workload job) share Op; Parent links a call to the span
// that caused it (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Probe marks spans recorded by a layer probe rather than by the
	// workload's own operations (see runProbes).
	Probe bool `json:"probe,omitempty"`
}

// observation is a count or ratio recorded at a layer boundary, where
// the work it describes happens.
type observation struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Probe bool    `json:"probe,omitempty"`
}

// tracer holds spans and observations in memory until the run ends. A
// nil *tracer records nothing, so code shared between traced and
// untraced runs calls it unconditionally.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	probe atomic.Bool

	mu    sync.Mutex
	spans []span
	obs   []observation
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; end records it.
func (t *tracer) begin(name string, parent, op int64) span {
	if t == nil {
		return span{}
	}
	return span{
		Name: name, ID: t.ids.Add(1), Parent: parent, Op: op,
		Start: int64(time.Since(t.t0)), Probe: t.probe.Load(),
	}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// op allocates an operation id for a new trial, request or job.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.obs = append(t.obs, observation{Name: name, Value: v, Probe: t.probe.Load()})
	t.mu.Unlock()
}

// write saves every span and observation as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload     string        `json:"workload"`
		Seed         int64         `json:"seed"`
		Spans        []span        `json:"spans"`
		Observations []observation `json:"observations"`
	}{workload, seed, t.spans, t.obs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// analysis indexes a finished trace by name. Each span contributes its
// self time: its duration minus the part of it its child spans cover.
// Lookups prefer what the workload's own operations recorded and fall
// back to probe records only for layers the workload never called.
type analysis struct {
	self map[bool]map[string][]float64 // probe? → span name → self ns
	obs  map[bool]map[string][]float64 // probe? → name → values
}

func analyze(t *tracer) *analysis {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &analysis{
		self: map[bool]map[string][]float64{false: {}, true: {}},
		obs:  map[bool]map[string][]float64{false: {}, true: {}},
	}
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		self := float64(s.End-s.Start) - covered(s, children[s.ID])
		a.self[s.Probe][s.Name] = append(a.self[s.Probe][s.Name], self)
	}
	for _, o := range t.obs {
		a.obs[o.Probe][o.Name] = append(a.obs[o.Probe][o.Name], o.Value)
	}
	return a
}

// covered is the length of the union of the children's intervals,
// clipped to the parent, so children that overlap count once.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return float64(total)
}

// spans returns the self times (ns) recorded under name: the workload's
// own if it made any such call, else the probe's.
func (a *analysis) spans(name string) []float64 {
	if v := a.self[false][name]; len(v) > 0 {
		return v
	}
	return a.self[true][name]
}

// values returns the observations recorded under name, with the same
// preference as spans.
func (a *analysis) values(name string) []float64 {
	if v := a.obs[false][name]; len(v) > 0 {
		return v
	}
	return a.obs[true][name]
}

// native reports whether the workload itself produced data for name.
func (a *analysis) native(name string) bool {
	return len(a.self[false][name]) > 0 || len(a.obs[false][name]) > 0
}

// layerMetric is one per-layer metric: how it is computed from a trace,
// which trace names it reads, and which probe measures the layer when
// the workload does not call it.
type layerMetric struct {
	name, unit string
	probe      string   // probe group; "" = always measured by the run itself
	reads      []string // span or observation names the metric is computed from
	calc       func(a *analysis) (value float64, n int)
}

// meanSpan is the mean self time of the named span, divided by scale
// (1e3 for µs, 1e6 for ms).
func meanSpan(span string, scale float64) func(*analysis) (float64, int) {
	return func(a *analysis) (float64, int) {
		v := a.spans(span)
		return mean(v) / scale, len(v)
	}
}

func meanObs(name string) func(*analysis) (float64, int) {
	return func(a *analysis) (float64, int) {
		v := a.values(name)
		return mean(v), len(v)
	}
}

func medianObs(name string) func(*analysis) (float64, int) {
	return func(a *analysis) (float64, int) {
		v := a.values(name)
		return median(v), len(v)
	}
}

// lastObs is the final reading of a cumulative counter.
func lastObs(name string) func(*analysis) (float64, int) {
	return func(a *analysis) (float64, int) {
		v := a.values(name)
		if len(v) == 0 {
			return math.NaN(), 0
		}
		return v[len(v)-1], len(v)
	}
}

// ratioObs is Σnum / Σden over two observation streams.
func ratioObs(num, den string) func(*analysis) (float64, int) {
	return func(a *analysis) (float64, int) {
		d := a.values(den)
		return sum(a.values(num)) / sum(d), len(d)
	}
}

// stepUs is the mean cost of one transient time step: total transient
// self time over total steps taken.
func stepUs(a *analysis) (float64, int) {
	steps := a.values("spice.steps")
	return sum(a.spans("spice.Transient")) / sum(steps) / 1e3, len(steps)
}

// nearestRank is the nearest-rank q-quantile of the named observations.
func nearestRank(name string, q float64) func(*analysis) (float64, int) {
	return func(a *analysis) (float64, int) {
		s := sorted(a.values(name))
		if len(s) == 0 {
			return math.NaN(), 0
		}
		r := int(math.Ceil(q*float64(len(s)))) - 1
		return s[max(r, 0)], len(s)
	}
}

// layerMetrics is the per-layer metric catalog, in stack order from the
// lithography draw up to the HTTP service, then the whole run: the
// end-to-end figures of a traced run's untraced half (e2e.*, proc.*; see
// runChild) and the traced half's throughput. BENCHMARK.json's per_layer
// list mirrors it (bench_test.go checks the two agree).
var layerMetrics = []layerMetric{
	{"litho.draw_us", "us", "analytic", []string{"litho.Draw"}, meanSpan("litho.Draw", 1e3)},
	{"extract.var_ratios_us", "us", "analytic", []string{"extract.VarRatios"}, meanSpan("extract.VarRatios", 1e3)},
	{"extract.fail_frac", "ratio", "analytic", []string{"extract.fail"}, meanObs("extract.fail")},
	{"extract.worst_case_ms", "ms", "sweep", []string{"extract.WorstCase"}, meanSpan("extract.WorstCase", 1e6)},
	{"analytic.tdp_ns", "ns", "analytic", []string{"analytic.tdp_ns"}, meanObs("analytic.tdp_ns")},
	{"sram.nominal_ms", "ms", "sweep", []string{"sram.NominalParasitics"}, meanSpan("sram.NominalParasitics", 1e6)},
	{"sram.build_us", "us", "spice", []string{"sram.Build"}, meanSpan("sram.Build", 1e3)},
	{"spice.reset_us", "us", "spice", []string{"spice.Reset"}, meanSpan("spice.Reset", 1e3)},
	{"spice.dc_ms", "ms", "spice", []string{"spice.DCOperatingPoint"}, meanSpan("spice.DCOperatingPoint", 1e6)},
	{"spice.transient_ms", "ms", "spice", []string{"spice.Transient"}, meanSpan("spice.Transient", 1e6)},
	{"spice.steps", "count", "spice", []string{"spice.steps"}, meanObs("spice.steps")},
	{"spice.step_us", "us", "spice", []string{"spice.Transient", "spice.steps"}, stepUs},
	{"spice.fail_frac", "ratio", "spice", []string{"spice.fail"}, meanObs("spice.fail")},
	{"device.eval_ns", "ns", "sparse", []string{"device.eval_ns"}, meanObs("device.eval_ns")},
	{"sparse.unknowns", "count", "sparse", []string{"sparse.unknowns"}, meanObs("sparse.unknowns")},
	{"sparse.nnz", "count", "sparse", []string{"sparse.nnz"}, meanObs("sparse.nnz")},
	{"sparse.copy_us", "us", "sparse", []string{"sparse.CopyFrom"}, meanSpan("sparse.CopyFrom", 1e3)},
	{"sparse.solve_us", "us", "sparse", []string{"sparse.Solve"}, meanSpan("sparse.Solve", 1e3)},
	{"sparse.solve_n16_us", "us", "sparse", []string{"sparse.Solve.n16"}, meanSpan("sparse.Solve.n16", 1e3)},
	{"sparse.lu_share", "ratio", "sparse", []string{"sparse.Solve"}, func(a *analysis) (float64, int) {
		solve := a.spans("sparse.Solve")
		step, _ := stepUs(a)
		return mean(solve) / 1e3 / step, len(solve)
	}},
	{"sweep.jobs", "count", "sweep", []string{"sweep.jobs"}, meanObs("sweep.jobs")},
	{"sweep.run_ms", "ms", "sweep", []string{"sweep.Run"}, meanSpan("sweep.Run", 1e6)},
	{"mc.blocks", "count", "mc", []string{"mc.blocks"}, meanObs("mc.blocks")},
	{"mc.block_ms_p50", "ms", "mc", []string{"mc.block_ms"}, medianObs("mc.block_ms")},
	{"mc.block_ms_p90", "ms", "mc", []string{"mc.block_ms"}, nearestRank("mc.block_ms", 0.9)},
	{"mc.reject_frac", "ratio", "mc", []string{"mc.rejected", "mc.drawn"}, ratioObs("mc.rejected", "mc.drawn")},
	{"report.render_ms", "ms", "mc", []string{"report.Encode"}, meanSpan("report.Encode", 1e6)},
	{"core.key_us", "us", "core", []string{"core.Key"}, meanSpan("core.Key", 1e3)},
	{"core.shard_run_ms", "ms", "core", []string{"core.RunShard"}, meanSpan("core.RunShard", 1e6)},
	{"core.reduce_ms", "ms", "core", []string{"core.Reduce"}, meanSpan("core.Reduce", 1e6)},
	{"core.artifact_kb", "KiB", "core", []string{"core.artifact_kb"}, meanObs("core.artifact_kb")},
	{"serve.latency_ms.hit", "ms", "serve", []string{"serve.latency_ms.hit"}, medianObs("serve.latency_ms.hit")},
	{"serve.latency_ms.cold", "ms", "serve", []string{"serve.latency_ms.cold"}, medianObs("serve.latency_ms.cold")},
	{"serve.latency_ms.fanout", "ms", "serve", []string{"serve.latency_ms.fanout"}, medianObs("serve.latency_ms.fanout")},
	{"serve.handler_ms.hit", "ms", "serve", []string{"serve.handler_ms.hit"}, medianObs("serve.handler_ms.hit")},
	{"serve.handler_ms.cold", "ms", "serve", []string{"serve.handler_ms.cold"}, medianObs("serve.handler_ms.cold")},
	{"serve.handler_ms.fanout", "ms", "serve", []string{"serve.handler_ms.fanout"}, medianObs("serve.handler_ms.fanout")},
	{"serve.transport_ms.hit", "ms", "serve", []string{"serve.transport_ms.hit"}, medianObs("serve.transport_ms.hit")},
	{"serve.transport_ms.cold", "ms", "serve", []string{"serve.transport_ms.cold"}, medianObs("serve.transport_ms.cold")},
	{"serve.cache_hit_ratio", "ratio", "serve", []string{"serve.cache_hit_ratio"}, lastObs("serve.cache_hit_ratio")},
	{"serve.fanout_runs", "count", "serve", []string{"serve.fanout_runs"}, lastObs("serve.fanout_runs")},
	{"serve.shards_redispatched", "count", "serve", []string{"serve.shards_redispatched"}, lastObs("serve.shards_redispatched")},
	{"e2e.ops_per_s", "1/s", "", []string{"e2e.ops_per_s"}, lastObs("e2e.ops_per_s")},
	{"e2e.job_ms_p50", "ms", "", []string{"e2e.job_ms"}, medianObs("e2e.job_ms")},
	{"e2e.failed_frac", "ratio", "", []string{"e2e.failed_frac"}, lastObs("e2e.failed_frac")},
	{"proc.cpu_util", "ratio", "", []string{"proc.cpu_util"}, lastObs("proc.cpu_util")},
	{"proc.max_rss_mb", "MiB", "", []string{"proc.max_rss_mb"}, lastObs("proc.max_rss_mb")},
	{"trace.ops_per_s", "1/s", "", []string{"trace.ops_per_s"}, lastObs("trace.ops_per_s")},
}

// missingProbes lists the probe groups whose layers the workload's own
// traced operations left without data, in catalog order.
func missingProbes(a *analysis) []string {
	var groups []string
	seen := map[string]bool{}
	for _, m := range layerMetrics {
		if m.probe == "" || seen[m.probe] {
			continue
		}
		for _, r := range m.reads {
			if !a.native(r) {
				seen[m.probe] = true
				groups = append(groups, m.probe)
				break
			}
		}
	}
	return groups
}

// layerResults computes every per-layer metric from a finished trace.
// source tells, per metric, whether the workload's own operations or a
// probe supplied it.
func layerResults(a *analysis) []metric {
	out := make([]metric, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		v, n := m.calc(a)
		src := "workload"
		for _, r := range m.reads {
			if !a.native(r) {
				src = "probe"
			}
		}
		out = append(out, metric{Name: m.name, Unit: m.unit, Value: v, N: n, Layer: layerOf(m.name), Source: src})
	}
	return out
}
