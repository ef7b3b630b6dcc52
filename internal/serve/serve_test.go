package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/report"
)

// Test-only workloads. They register into this test binary's registry
// only — the exp package's own tests and the CLI never see them.
//
// testslow blocks until its tag's gate is released (and reports
// progress), testcheap returns instantly with a deterministic table,
// testfail always errors. Tags keep concurrent tests isolated: each test
// uses fresh tags, so gates and execution counters never cross.
var (
	gateMu sync.Mutex
	gates  = map[string]chan struct{}{}
	counts sync.Map // tag -> *atomic.Int64
)

func gate(tag string) chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	ch, ok := gates[tag]
	if !ok {
		ch = make(chan struct{})
		gates[tag] = ch
	}
	return ch
}

func release(tag string) { close(gate(tag)) }

func execCount(tag string) *atomic.Int64 {
	v, _ := counts.LoadOrStore(tag, &atomic.Int64{})
	return v.(*atomic.Int64)
}

func init() {
	exp.Register(exp.Workload{
		Name: "testslow", Summary: "test-only: blocks until released",
		Order:  900,
		Params: []exp.ParamSpec{{Name: "tag", Kind: exp.StringParam, Default: "", Help: "gate tag"}},
		Run: func(ctx context.Context, e exp.Env, p exp.Params) (*exp.Result, error) {
			tag := p.String("tag")
			execCount(tag).Add(1)
			if e.MC.Progress != nil {
				e.MC.Progress(1, 2)
			}
			select {
			case <-gate(tag):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.MC.Progress != nil {
				e.MC.Progress(2, 2)
			}
			t := report.New("test slow", "tag")
			_ = t.Appendf(tag)
			return &exp.Result{Tables: []*report.Table{t}, Text: "slow " + tag + "\n"}, nil
		},
	})
	exp.Register(exp.Workload{
		Name: "testcheap", Summary: "test-only: instant deterministic table",
		Order:  901,
		Params: []exp.ParamSpec{{Name: "x", Kind: exp.IntParam, Default: 7, Help: "value"}},
		Run: func(ctx context.Context, e exp.Env, p exp.Params) (*exp.Result, error) {
			execCount("cheap").Add(1)
			t := report.New("test cheap", "x", "seed", "samples", "process")
			_ = t.Appendf(p.Int("x"), e.MC.Seed, e.MC.Samples, e.Proc.Name)
			return &exp.Result{Tables: []*report.Table{t}, Text: "cheap\n"}, nil
		},
	})
	exp.Register(exp.Workload{
		Name: "testfail", Summary: "test-only: always errors",
		Order: 902,
		Run: func(ctx context.Context, e exp.Env, p exp.Params) (*exp.Result, error) {
			execCount("fail").Add(1)
			return nil, fmt.Errorf("deliberate failure")
		},
	})
}

// newTestServer starts a Server plus an httptest front end and tears
// both down (draining the pool) at cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, query, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// waitStatus polls a run's status envelope until want (or times out).
func waitStatus(t *testing.T, ts *httptest.Server, id string, want runStatus) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, b := getJSON(t, ts.URL+"/v1/runs/"+id)
		if resp.StatusCode == http.StatusOK {
			var env statusEnvelope
			if json.Unmarshal(b, &env) == nil && env.Status == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
}

func specKey(t *testing.T, s core.RunSpec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestWorkloadsEndpointMatchesRegistry: the listing is generated from
// the same descriptors the CLI and Study.Run use — every registered
// workload appears with its summary, schema and hints intact.
func TestWorkloadsEndpointMatchesRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := getJSON(t, ts.URL+"/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got struct {
		Engine    string `json:"engine"`
		Processes []string
		Workloads []struct {
			Name    string `json:"name"`
			Summary string `json:"summary"`
			InAll   bool   `json:"in_all"`
			Params  []struct {
				Name    string `json:"name"`
				Kind    string `json:"kind"`
				Default any    `json:"default"`
			} `json:"params"`
			Hints struct {
				Samples   int `json:"samples"`
				SamplesCV int `json:"samples_cv"`
			} `json:"hints"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, b)
	}
	if got.Engine != core.EngineVersion {
		t.Errorf("engine %q != %q", got.Engine, core.EngineVersion)
	}
	if len(got.Processes) == 0 || got.Processes[0] != "N10" {
		t.Errorf("processes drifted: %v", got.Processes)
	}
	reg := exp.Workloads()
	if len(got.Workloads) != len(reg) {
		t.Fatalf("listing has %d workloads, registry %d", len(got.Workloads), len(reg))
	}
	for i, w := range reg {
		g := got.Workloads[i]
		if g.Name != w.Name || g.Summary != w.Summary || g.InAll != w.InAll ||
			g.Hints.Samples != w.Hints.Samples || g.Hints.SamplesCV != w.Hints.CVSamples ||
			len(g.Params) != len(w.Params) {
			t.Errorf("workload %s drifted on the wire: %+v", w.Name, g)
			continue
		}
		for j, ps := range w.Params {
			want, _ := json.Marshal(ps.Default)
			have, _ := json.Marshal(g.Params[j].Default)
			if g.Params[j].Name != ps.Name || g.Params[j].Kind != ps.Kind.String() ||
				!bytes.Equal(want, have) {
				t.Errorf("%s.%s drifted: %+v", w.Name, ps.Name, g.Params[j])
			}
		}
	}
}

// TestSubmitValidation: every malformed submission answers 400 with the
// registry's own error text (valid-names listings verbatim).
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		want string
	}{
		{`{"workload":"fig5","params":{"bogus":1}}`, "valid: n, ol"},
		{`{"workload":"nope"}`, "registered:"},
		{`{"workload":"table1","process":"N3"}`, "N10"},
		{`{"workload":"fig5","params":{"n":1.5}}`, "not an integer"},
		{`{"workload":"table1","smaples":4}`, "unknown field"},
		{`{not json`, "invalid request body"},
	}
	for _, c := range cases {
		resp, b := postRun(t, ts, "", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.body, resp.StatusCode, b)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(b, &env); err != nil || !strings.Contains(env.Error, c.want) {
			t.Errorf("%s: error %q missing %q", c.body, env.Error, c.want)
		}
	}
}

// TestCacheHitByteIdentical drives a real registry workload (fig3)
// twice: the cold run executes, the re-submission is a cache hit that is
// byte-identical and answers in single-digit milliseconds, and
// GET /v1/runs/{id} serves the same bytes again.
func TestCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workload":"fig3"}`
	resp1, cold := postRun(t, ts, "", body)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Mpvar-Cache") != "miss" {
		t.Fatalf("cold run: status %d cache %q: %s", resp1.StatusCode, resp1.Header.Get("X-Mpvar-Cache"), cold)
	}
	start := time.Now()
	resp2, warm := postRun(t, ts, "", body)
	elapsed := time.Since(start)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Mpvar-Cache") != "hit" {
		t.Fatalf("cached run: status %d cache %q", resp2.StatusCode, resp2.Header.Get("X-Mpvar-Cache"))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache hit not byte-identical:\ncold: %s\nwarm: %s", cold, warm)
	}
	if elapsed > 10*time.Millisecond {
		t.Errorf("cached re-submission took %v, want <10ms", elapsed)
	}
	var env runEnvelope
	if err := json.Unmarshal(cold, &env); err != nil {
		t.Fatalf("envelope: %v\n%s", err, cold)
	}
	if want := specKey(t, core.RunSpec{Workload: "fig3"}); env.ID != want {
		t.Errorf("envelope id %s != spec key %s", env.ID, want)
	}
	if env.Engine != core.EngineVersion || env.Process != "N10" || env.Seed != core.DefaultSeed {
		t.Errorf("envelope metadata drifted: %+v", env)
	}
	var tables []any
	if err := json.Unmarshal(env.Tables, &tables); err != nil || len(tables) != 1 {
		t.Errorf("tables field not a one-table array: %v", err)
	}
	resp3, again := getJSON(t, ts.URL+"/v1/runs/"+env.ID)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Mpvar-Cache") != "hit" ||
		!bytes.Equal(again, cold) {
		t.Fatalf("GET by id drifted from the submission body")
	}
}

// TestDefaultedParamsShareCacheEntry is the serve-level face of the
// normalization bugfix: explicit defaults, padded case-folded process
// names and defaulted seeds all land on the cold run's cache entry —
// one execution total.
func TestDefaultedParamsShareCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := execCount("cheap").Load()
	resp, cold := postRun(t, ts, "", `{"workload":"testcheap","params":{"x":7},"seed":2015,"process":" n10 "}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mpvar-Cache") != "miss" {
		t.Fatalf("cold: %d %q", resp.StatusCode, resp.Header.Get("X-Mpvar-Cache"))
	}
	for _, body := range []string{
		`{"workload":"testcheap"}`,
		`{"workload":"testcheap","params":{"x":7.0}}`,
		`{"workload":"testcheap","process":"N10","seed":0}`,
	} {
		resp, warm := postRun(t, ts, "", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mpvar-Cache") != "hit" {
			t.Errorf("%s: expected cache hit, got %d %q", body, resp.StatusCode, resp.Header.Get("X-Mpvar-Cache"))
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: body drifted from cold run", body)
		}
	}
	if got := execCount("cheap").Load() - before; got != 1 {
		t.Fatalf("normalized spellings executed %d times, want 1", got)
	}
}

// TestSingleFlight: identical concurrent submissions coalesce onto one
// execution; both callers receive the same bytes.
func TestSingleFlight(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"workload":"testslow","params":{"tag":"sf"}}`
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := postRun(t, ts, "", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, b)
			}
			mu.Lock()
			bodies = append(bodies, b)
			mu.Unlock()
		}()
	}
	// Let both submissions land (the first executes, the second must
	// attach to it), then release the gate.
	id := specKey(t, core.RunSpec{Workload: "testslow", Params: exp.Params{"tag": "sf"}})
	waitStatus(t, ts, id, statusRunning)
	time.Sleep(20 * time.Millisecond)
	release("sf")
	wg.Wait()
	if len(bodies) != 2 || !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("concurrent callers diverged: %d bodies", len(bodies))
	}
	if got := execCount("sf").Load(); got != 1 {
		t.Fatalf("identical concurrent POSTs executed %d times, want 1", got)
	}
}

// TestQueueShedding: with one executor busy and the one queue slot
// filled, the next distinct submission sheds with 429 + Retry-After and
// never executes.
func TestQueueShedding(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	submit := func(tag string) (*http.Response, []byte) {
		return postRun(t, ts, "?wait=0", fmt.Sprintf(`{"workload":"testslow","params":{"tag":%q}}`, tag))
	}
	respA, bodyA := submit("shed-a")
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d %s", respA.StatusCode, bodyA)
	}
	var envA statusEnvelope
	if err := json.Unmarshal(bodyA, &envA); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts, envA.ID, statusRunning) // executor now occupied
	if resp, b := submit("shed-b"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued: %d %s", resp.StatusCode, b)
	}
	respC, bodyC := submit("shed-c")
	if respC.StatusCode != http.StatusTooManyRequests || respC.Header.Get("Retry-After") == "" {
		t.Fatalf("over-queue submission: status %d retry-after %q: %s",
			respC.StatusCode, respC.Header.Get("Retry-After"), bodyC)
	}
	if !strings.Contains(string(bodyC), "queue full") {
		t.Fatalf("shed body drifted: %s", bodyC)
	}
	release("shed-a")
	release("shed-b")
	for _, tag := range []string{"shed-a", "shed-b"} {
		id := specKey(t, core.RunSpec{Workload: "testslow", Params: exp.Params{"tag": tag}})
		waitCached(t, ts, id)
	}
	if got := execCount("shed-c").Load(); got != 0 {
		t.Fatalf("shed run executed %d times", got)
	}
}

// waitCached polls until GET /v1/runs/{id} answers from the cache.
func waitCached(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, _ := getJSON(t, ts.URL+"/v1/runs/"+id)
		if resp.Header.Get("X-Mpvar-Cache") == "hit" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never reached the cache", id)
}

// TestDrainCompletesInflight: draining refuses new submissions with 503
// but lets the in-flight run finish and land in the cache.
func TestDrainCompletesInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, b := postRun(t, ts, "?wait=0", `{"workload":"testslow","params":{"tag":"drain-a"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var env statusEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts, env.ID, statusRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, b := postRun(t, ts, "?wait=0", `{"workload":"testslow","params":{"tag":"drain-b"}}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: %d %s", resp.StatusCode, b)
	}
	if resp, b := getJSON(t, ts.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(b), `"status":"draining"`) {
		t.Fatalf("healthz while draining: %d %s", resp.StatusCode, b)
	}
	release("drain-a")
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight run finished during the drain and is servable.
	resp2, body := getJSON(t, ts.URL+"/v1/runs/"+env.ID)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Mpvar-Cache") != "hit" {
		t.Fatalf("drained run not cached: %d %s", resp2.StatusCode, body)
	}
	if got := execCount("drain-b").Load(); got != 0 {
		t.Fatalf("draining server executed a new run %d times", got)
	}
}

// TestSSEProgress subscribes to a running run's event stream: an initial
// status frame carrying current progress, then the terminal done frame
// once the gate releases; a finished run answers done immediately; an
// unknown id answers 404.
func TestSSEProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, b := postRun(t, ts, "?wait=0", `{"workload":"testslow","params":{"tag":"sse"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var env statusEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	// Wait until the run has reported its first progress point so the
	// initial status frame deterministically carries done=1/total=2.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, sb := getJSON(t, ts.URL+"/v1/runs/"+env.ID)
		var st statusEnvelope
		if resp.StatusCode == http.StatusOK && json.Unmarshal(sb, &st) == nil &&
			st.Progress != nil && st.Progress.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never reported progress")
		}
		time.Sleep(5 * time.Millisecond)
	}

	sresp, err := http.Get(ts.URL + "/v1/runs/" + env.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	frames := make(chan string, 32)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(sresp.Body)
		var frame strings.Builder
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				frames <- frame.String()
				frame.Reset()
				continue
			}
			frame.WriteString(line + "\n")
		}
	}()
	first := <-frames
	if !strings.Contains(first, "event: status") || !strings.Contains(first, `"done":1`) {
		t.Fatalf("initial frame drifted: %q", first)
	}
	release("sse")
	var liveDone, liveProgress string
	for f := range frames {
		if strings.Contains(f, "event: done") {
			liveDone = f
			if !strings.Contains(f, env.ID) {
				t.Errorf("done frame missing run id: %q", f)
			}
			break
		}
		if strings.Contains(f, "event: progress") {
			liveProgress = f
		} else {
			t.Errorf("unexpected frame: %q", f)
		}
	}
	if liveDone == "" {
		t.Fatal("stream ended without a done event")
	}
	if !strings.Contains(liveDone, `"workload":"testslow"`) {
		t.Fatalf("live done frame missing workload: %q", liveDone)
	}
	// The live stream must close with a terminal 100% progress frame
	// immediately before done — not leave the last subscriber-channel
	// point (which a slow client may have dropped) as the final word.
	if !strings.Contains(liveProgress, `"done":2`) || !strings.Contains(liveProgress, `"total":2`) {
		t.Fatalf("live stream's final progress frame is not terminal: %q", liveProgress)
	}
	sresp.Body.Close()

	// A finished run's stream answers immediately — and the terminal
	// frame sequence (100% progress, then done) is byte-identical to the
	// one the live subscriber received, not a thinner cached-path variant.
	resp2, b2 := getJSON(t, ts.URL+"/v1/runs/"+env.ID+"/events")
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(b2), "event: done") {
		t.Fatalf("cached-run stream: %d %q", resp2.StatusCode, b2)
	}
	wantTail := strings.TrimSpace(liveProgress) + "\n\n" + strings.TrimSpace(liveDone)
	if cached := strings.TrimSpace(string(b2)); cached != wantTail {
		t.Errorf("cached-run frames diverged from the live terminal sequence:\ncached %q\n  live %q", cached, wantTail)
	}
	if resp3, _ := getJSON(t, ts.URL+"/v1/runs/no-such-run/events"); resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run events: %d", resp3.StatusCode)
	}
}

// TestFailureNotCached: a failing run answers 500 with the workload's
// error and its body is never cached — a re-submission executes again —
// but the failure itself stays queryable: GET /v1/runs/{id} reports
// status "failed" with the error (not 404), and the SSE stream answers a
// terminal error frame.
func TestFailureNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := execCount("fail").Load()
	resp, b := postRun(t, ts, "", `{"workload":"testfail"}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), "deliberate failure") {
		t.Fatalf("failed run: %d %s", resp.StatusCode, b)
	}
	id := specKey(t, core.RunSpec{Workload: "testfail"})
	sresp, sb := getJSON(t, ts.URL+"/v1/runs/"+id)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("failed-run status: %d %s", sresp.StatusCode, sb)
	}
	var st statusEnvelope
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != statusFailed || st.Workload != "testfail" ||
		!strings.Contains(st.Error, "deliberate failure") {
		t.Fatalf("failed-run envelope drifted: %+v", st)
	}
	eresp, eb := getJSON(t, ts.URL+"/v1/runs/"+id+"/events")
	if eresp.StatusCode != http.StatusOK || !strings.Contains(string(eb), "event: error") ||
		!strings.Contains(string(eb), "deliberate failure") {
		t.Fatalf("failed-run events: %d %q", eresp.StatusCode, eb)
	}
	if resp, _ := postRun(t, ts, "", `{"workload":"testfail"}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("re-submission: %d", resp.StatusCode)
	}
	if got := execCount("fail").Load() - before; got != 2 {
		t.Fatalf("failures executed %d times, want 2 (not cached)", got)
	}
}

// TestFailedTableBounded pins the failure-retention bound: the oldest
// records age out FIFO and answer 404 again.
func TestFailedTableBounded(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	s.mu.Lock()
	for i := 0; i < maxFailedRetained+3; i++ {
		r := newRun(fmt.Sprintf("key-%03d", i), core.RunSpec{Workload: "testfail"})
		r.finish(nil, fmt.Errorf("boom %d", i))
		s.recordFailedLocked(r)
	}
	if len(s.failed) != maxFailedRetained || len(s.failedOrder) != maxFailedRetained {
		s.mu.Unlock()
		t.Fatalf("bound drifted: %d records, %d order", len(s.failed), len(s.failedOrder))
	}
	_, oldest := s.failed["key-000"]
	_, newest := s.failed[fmt.Sprintf("key-%03d", maxFailedRetained+2)]
	s.mu.Unlock()
	if oldest || !newest {
		t.Fatalf("FIFO eviction drifted: oldest retained=%v newest retained=%v", oldest, newest)
	}
}

// TestResultCacheLRU pins the eviction order of the bounded cache and
// that the workload rides along with the body.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.Add("a", "wa", []byte("A"), progressPoint{Done: 2, Total: 2})
	c.Add("b", "wb", []byte("B"), progressPoint{})
	if _, _, _, ok := c.Get("a"); !ok { // promote a
		t.Fatal("a missing")
	}
	c.Add("c", "wc", []byte("C"), progressPoint{}) // evicts b (LRU)
	if _, _, _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if v, wl, p, ok := c.Get("a"); !ok || string(v) != "A" || wl != "wa" || p.Total != 2 {
		t.Fatalf("a lost or metadata drifted: %q %q %+v", v, wl, p)
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	c.Add("a", "wa", []byte("A2"), progressPoint{}) // refresh in place
	if v, _, _, _ := c.Get("a"); string(v) != "A2" || c.Len() != 2 {
		t.Fatalf("refresh drifted: %q len %d", v, c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("lookup counters drifted: %d hits %d misses, want 3/1", hits, misses)
	}
}

// TestListenAndServe exercises the real listener path: bind :0, serve a
// request, cancel the context, drain cleanly.
func TestListenAndServe(t *testing.T) {
	s := New(Config{DrainTimeout: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- s.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrc <- a })
	}()
	addr := <-addrc
	resp, err := http.Get("http://" + addr.String() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("ListenAndServe did not return after cancel")
	}
}

// TestDrainRemovesShardScratch: every server's shard-worker role makes a
// temporary scratch directory; Drain removes it, so a server leaves
// nothing behind in TMPDIR.
func TestDrainRemovesShardScratch(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	s := New(Config{})
	made, _ := filepath.Glob(filepath.Join(tmp, "mpvar-shardwork-*"))
	if len(made) != 1 {
		t.Fatalf("server made %d shard scratch dirs, want 1", len(made))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "mpvar-shardwork-*")); len(left) != 0 {
		t.Fatalf("drain left shard scratch behind: %v", left)
	}
	// A second Drain (the CLI path drains after its own beginDrain) is a
	// no-op.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}
