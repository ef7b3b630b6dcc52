package core

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"mpsram/internal/exp"
	"mpsram/internal/mc"
	"mpsram/internal/report"
)

func init() {
	exp.Register(exp.Workload{
		Name: "testlazytext", Summary: "test-only: counts its text renderings in Data",
		Order: 900,
		Run: func(e exp.Env, p exp.Params) (*exp.Result, error) {
			t := report.New("lazy text", "x")
			t.Appendf(1)
			calls := new(atomic.Int64)
			text := func() string {
				calls.Add(1)
				return "lazy text\n"
			}
			return &exp.Result{Data: calls, Tables: []*report.Table{t}, Text: text}, nil
		},
	})
}

// TestTextFormattedOnlyWhenAsked: a run rendered as JSON never formats
// its paper-style text, and Write(FormatText) formats it once.
func TestTextFormattedOnlyWhenAsked(t *testing.T) {
	res, err := RunSpec{Workload: "testlazytext"}.Run()
	if err != nil {
		t.Fatal(err)
	}
	calls := res.Data.(*atomic.Int64)
	var b strings.Builder
	if err := res.Write(&b, report.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("run and JSON rendering formatted the text %d times, want 0", n)
	}
	b.Reset()
	if err := res.Write(&b, report.FormatText); err != nil || b.String() != "lazy text\n" {
		t.Fatalf("text rendering %q, %v", b.String(), err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("Write(FormatText) formatted the text %d times, want 1", n)
	}
}

// TestStudyRunSurface covers the registry-facing facade: listing,
// dispatch, the unknown-name contract and parameter validation.
func TestStudyRunSurface(t *testing.T) {
	s, err := NewStudy(WithMC(mc.Config{Samples: 50, Seed: 2015}))
	if err != nil {
		t.Fatal(err)
	}
	ws := exp.Workloads()
	if len(ws) < 15 {
		t.Fatalf("registry too small: %d", len(ws))
	}
	if _, err := s.Run("bogus", nil); err == nil || !strings.Contains(err.Error(), "table1") {
		t.Fatalf("unknown workload must list the registry, got %v", err)
	}
	if _, err := s.Run("nodes", exp.Params{"n": "x"}); err == nil {
		t.Fatal("bad param accepted")
	}
	res, err := s.Run("table1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Text() == "" || len(res.Tables) == 0 || res.Data == nil {
		t.Fatalf("incomplete result %+v", res)
	}
}

// TestCheapWorkloadRows keeps the fast workloads' typed rows covered on
// the short path: each returns its expected row count through Run.
func TestCheapWorkloadRows(t *testing.T) {
	s, err := NewStudy(WithMC(mc.Config{Samples: 20, Seed: 2015}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    exp.Params
		rows func(any) int
		want int
	}{
		{"fig2", nil, func(d any) int { return len(d.([]exp.Fig2Entry)) }, 3},
		{"fig3", nil, func(d any) int { return len(d.([]exp.Fig3Row)) }, 4},
		{"fig5", exp.Params{"n": 64, "ol": 8.0}, func(d any) int { return len(d.([]exp.Fig5Result)) }, 3},
		{"nodes", nil, func(d any) int { return len(d.([]exp.NodesRow)) }, 18},
		{"table4xp", nil, func(d any) int { return len(d.([]exp.ProcessSurface)) }, 3},
	} {
		res, err := s.Run(tc.name, tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tc.rows(res.Data); got != tc.want {
			t.Fatalf("%s: %d rows, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAllWorkloadsSmoke runs every registered workload at a tiny budget
// through Study.Run — the single smoke gate that replaces per-workload
// CI steps. A newly registered workload is covered here automatically;
// its Hints.Smoke parameters keep heavyweight DOEs affordable.
func TestAllWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-backed workloads in -short mode")
	}
	s, err := NewStudy(WithMC(mc.Config{Samples: 4, Seed: 2015}), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range exp.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := s.Run(w.Name, w.Hints.Smoke)
			if err != nil {
				t.Fatal(err)
			}
			if res.Text() == "" {
				t.Fatal("empty text rendering")
			}
			if len(res.Tables) == 0 || res.Data == nil {
				t.Fatalf("incomplete result: %d tables, data %T", len(res.Tables), res.Data)
			}
			// Every workload speaks every encoder; JSON must decode.
			var b strings.Builder
			for _, f := range []report.Format{report.FormatCSV, report.FormatMarkdown} {
				if err := res.Write(&b, f); err != nil {
					t.Fatalf("format %v: %v", f, err)
				}
			}
			b.Reset()
			if err := res.Write(&b, report.FormatJSON); err != nil {
				t.Fatal(err)
			}
			var doc []struct {
				Rows []map[string]any `json:"rows"`
			}
			if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
				t.Fatalf("invalid json: %v\n%s", err, b.String())
			}
			if len(doc) != len(res.Tables) {
				t.Fatalf("json tables %d, result tables %d", len(doc), len(res.Tables))
			}
		})
	}
}
