package exp

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"mpsram/internal/mc"
	"mpsram/internal/report"
)

// tinyEnv is a fast deterministic environment for registry-level tests.
func tinyEnv() Env {
	e := DefaultEnv()
	e.MC = mc.Config{Samples: 50, Seed: 2015}
	return e
}

func TestRegistryListing(t *testing.T) {
	ws := Workloads()
	if len(ws) < 15 {
		t.Fatalf("registry too small: %d workloads", len(ws))
	}
	if !sort.SliceIsSorted(ws, func(i, j int) bool {
		if ws[i].Order != ws[j].Order {
			return ws[i].Order < ws[j].Order
		}
		return ws[i].Name < ws[j].Name
	}) {
		t.Fatal("Workloads() not in listing order")
	}
	// The paper experiments and the registry-registered extensions are
	// all present; the "all" plan covers exactly the paper-order set.
	names := map[string]Workload{}
	for _, w := range ws {
		names[w.Name] = w
	}
	for _, want := range []string{
		"table1", "fig2", "fig3", "fig4", "table2", "table3", "spicetables",
		"fig5", "table4", "table4x", "table4xp", "nodes", "mcspice",
		"mcspicex", "mcspicenodes", "snm", "sens", "ext", "processes",
		"workloads", "all",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("workload %q not registered", want)
		}
	}
	var inAll []string
	for _, w := range ws {
		if w.InAll {
			inAll = append(inAll, w.Name)
		}
	}
	wantAll := []string{"table1", "fig2", "fig3", "spicetables", "fig5", "table4"}
	if strings.Join(inAll, " ") != strings.Join(wantAll, " ") {
		t.Fatalf("all-plan drifted: %v", inAll)
	}
}

func TestLookupWorkloadUnknownListsRegistry(t *testing.T) {
	_, err := LookupWorkload("bogus")
	if err == nil || !strings.Contains(err.Error(), "table1") || !strings.Contains(err.Error(), "mcspicex") {
		t.Fatalf("unknown-workload error must list the registry, got %v", err)
	}
}

func TestRegisterRejectsDuplicatesAndBadDefaults(t *testing.T) {
	mustPanic := func(name string, w Workload) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		Register(w)
	}
	mustPanic("duplicate", Workload{Name: "table1", Run: registry["table1"].Run})
	mustPanic("no run", Workload{Name: "unique-no-run"})
	mustPanic("bad default", Workload{
		Name: "unique-bad-default", Run: registry["table1"].Run,
		Params: []ParamSpec{{Name: "n", Kind: IntParam, Default: "sixty-four"}},
	})
	mustPanic("dup param", Workload{
		Name: "unique-dup-param", Run: registry["table1"].Run,
		Params: []ParamSpec{
			{Name: "n", Kind: IntParam, Default: 1},
			{Name: "n", Kind: IntParam, Default: 2},
		},
	})
	if _, leaked := registry["unique-bad-default"]; leaked {
		t.Fatal("failed registration leaked into the registry")
	}
}

func TestRunParamValidation(t *testing.T) {
	e := tinyEnv()
	// Unknown parameter names answer with the schema.
	if _, err := Run(e, "fig5", Params{"bogus": 1}); err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "n, ol") {
		t.Fatalf("unknown param error must list valid names, got %v", err)
	}
	// A parameterless workload says so.
	if _, err := Run(e, "table1", Params{"n": 8}); err == nil || !strings.Contains(err.Error(), "takes no parameters") {
		t.Fatalf("parameterless error drifted: %v", err)
	}
	// Type mismatches are rejected; integral floats coerce to ints.
	if _, err := Run(e, "nodes", Params{"n": "eight"}); err == nil || !strings.Contains(err.Error(), "want int") {
		t.Fatalf("type mismatch accepted: %v", err)
	}
	if _, err := Run(e, "nodes", Params{"n": 8.5}); err == nil {
		t.Fatal("fractional int accepted")
	}
	rp, err := resolveParams(*registry["fig5"], Params{"n": float64(8), "ol": 3})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Int("n") != 8 || rp.Float("ol") != 3.0 {
		t.Fatalf("coercion drifted: %+v", rp)
	}
	// Defaults fill untouched parameters.
	rp, err = resolveParams(*registry["fig5"], nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Int("n") != 64 || rp.Float("ol") != 0 {
		t.Fatalf("defaults drifted: %+v", rp)
	}
}

// TestCheapWorkloadsThroughRun drives the no-SPICE workloads end-to-end
// through the registry: typed Data, a tabular view and a text rendering,
// with the JSON path decoding cleanly.
func TestCheapWorkloadsThroughRun(t *testing.T) {
	e := tinyEnv()
	for _, name := range []string{"table1", "fig3", "sens", "processes", "workloads"} {
		res, err := Run(e, name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Data == nil || res.Text() == "" || len(res.Tables) == 0 {
			t.Fatalf("%s: incomplete result %+v", name, res)
		}
		var b strings.Builder
		if err := res.Write(&b, report.FormatJSON); err != nil {
			t.Fatalf("%s: json: %v", name, err)
		}
		var doc []struct {
			Rows []map[string]any `json:"rows"`
		}
		if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
			t.Fatalf("%s: invalid json: %v\n%s", name, err, b.String())
		}
		if len(doc) != len(res.Tables) || len(doc[0].Rows) == 0 {
			t.Fatalf("%s: json shape drifted (%d tables)", name, len(doc))
		}
	}
}

// TestWorkloadTable1MatchesDriver: the registry path returns the same
// typed rows as the direct driver call.
func TestWorkloadTable1MatchesDriver(t *testing.T) {
	e := tinyEnv()
	res, err := Run(e, "table1", nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Table1(e)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]Table1Row)
	if len(rows) != len(direct) || rows[0] != direct[0] {
		t.Fatalf("registry rows drifted from driver rows")
	}
}

// TestMCSpiceXTiny runs the paired SPICE/analytic workload at the
// smallest affordable budget (one size, four draws — a fraction of a
// second), keeping the full driver on the fast deterministic path. The
// SPICE σ must track the analytic σ loosely even at four draws: both
// paths consume the same deviates, so gross disagreement means a wiring
// bug, not noise.
func TestMCSpiceXTiny(t *testing.T) {
	e := tinyEnv()
	e.MC.Samples = 4
	res, err := Run(e, "mcspicex", Params{"sizes": "8"})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]MCSpiceXRow)
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.N != 8 || r.Spice.N != 4 || r.Analytic.N != 4 {
			t.Fatalf("row shape drifted: %+v", r)
		}
		if r.Spice.Std <= 0 || r.Analytic.Std <= 0 {
			t.Fatalf("degenerate sigma: %+v", r)
		}
		if d := r.SigmaDeltaPct(); d < -95 || d > 300 {
			t.Fatalf("spice/analytic sigma wildly apart (%+.1f%%): %+v", d, r)
		}
	}
	if !strings.Contains(res.Text(), "σ_spice") || !strings.Contains(res.Text(), "4 read transients") {
		t.Fatalf("text drifted:\n%s", res.Text())
	}
	tbl := MCSpiceXReport(rows)
	if len(tableRows(t, tbl)) != 3 || tbl.Columns[4] != "spice_sigma_pct" {
		t.Fatal("report table drifted")
	}
	if (MCSpiceXRow{}).SigmaDeltaPct() != 0 {
		t.Fatal("zero-analytic delta must be 0")
	}
}

// TestParamKindsAndCoercion covers the schema type system: kind names,
// the cross-type spellings coerceParam accepts, and the accessors.
func TestParamKindsAndCoercion(t *testing.T) {
	for k, want := range map[ParamKind]string{
		IntParam: "int", FloatParam: "float", BoolParam: "bool",
		StringParam: "string", ParamKind(99): "ParamKind(99)",
	} {
		if k.String() != want {
			t.Fatalf("%v.String() = %q", want, k.String())
		}
	}
	ok := []struct {
		spec ParamSpec
		in   any
		want any
	}{
		{ParamSpec{Name: "i", Kind: IntParam}, int64(7), 7},
		{ParamSpec{Name: "i", Kind: IntParam}, 7.0, 7},
		{ParamSpec{Name: "f", Kind: FloatParam}, float32(1.5), 1.5},
		{ParamSpec{Name: "f", Kind: FloatParam}, int64(2), 2.0},
		{ParamSpec{Name: "b", Kind: BoolParam}, true, true},
		{ParamSpec{Name: "s", Kind: StringParam}, "x", "x"},
		{ParamSpec{Name: "i", Kind: IntParam}, 1 << 53, 1 << 53},
		{ParamSpec{Name: "i", Kind: IntParam}, -float64(1 << 53), -1 << 53},
	}
	for _, c := range ok {
		got, err := coerceParam(c.spec, c.in)
		if err != nil || got != c.want {
			t.Fatalf("coerce %v(%v) = %v, %v", c.spec.Kind, c.in, got, err)
		}
	}
	for _, c := range []struct {
		spec ParamSpec
		in   any
		want string
	}{
		{ParamSpec{Name: "b", Kind: BoolParam}, "true", "want bool"},
		{ParamSpec{Name: "s", Kind: StringParam}, 1, "want string"},
		{ParamSpec{Name: "i", Kind: IntParam}, true, "want int"},
		// What no JSON front end can carry is refused by kind, whatever
		// the parameter is called.
		{ParamSpec{Name: "x", Kind: IntParam}, 1<<53 + 1, "param x must be at most 2^53"},
		{ParamSpec{Name: "x", Kind: IntParam}, int64(-1<<53 - 1), "param x must be at least -2^53"},
		{ParamSpec{Name: "x", Kind: IntParam}, 1e300, "param x must be at most 2^53"},
		{ParamSpec{Name: "x", Kind: IntParam}, math.Inf(-1), "param x must be at least -2^53"},
		{ParamSpec{Name: "x", Kind: IntParam}, math.NaN(), "param x: NaN is not an integer"},
		{ParamSpec{Name: "y", Kind: FloatParam}, math.Inf(1), "param y must be finite, got +Inf"},
		{ParamSpec{Name: "y", Kind: FloatParam}, float32(math.Inf(1)), "param y must be finite, got +Inf"},
		{ParamSpec{Name: "z", Kind: StringParam}, "\xd8", "param z: \"\\xd8\" is not valid UTF-8"},
	} {
		if _, err := coerceParam(c.spec, c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("coerce %v(%v): %v, want an error naming %q", c.spec.Kind, c.in, err, c.want)
		}
	}
	p := Params{"b": true, "s": "v", "i": 3, "f": 0.5}
	if !p.Bool("b") || p.String("s") != "v" || p.Int("i") != 3 || p.Float("f") != 0.5 {
		t.Fatal("accessors drifted")
	}
}

// TestResultWriteContract pins the rendering contract: text always
// works, and a table-less result refuses the machine-readable formats
// instead of leaking text where a consumer expects JSON/CSV.
func TestResultWriteContract(t *testing.T) {
	r := &Result{Text: func() string { return "plain\n" }}
	var b strings.Builder
	if err := r.Write(&b, report.FormatText); err != nil || b.String() != "plain\n" {
		t.Fatalf("text path drifted: %v %q", err, b.String())
	}
	for _, f := range []report.Format{report.FormatCSV, report.FormatMarkdown, report.FormatJSON} {
		if err := r.Write(&b, f); err == nil || !strings.Contains(err.Error(), "no tabular view") {
			t.Fatalf("format %v on table-less result must error, got %v", f, err)
		}
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes(" 8, 16,64 ")
	if err != nil || len(got) != 3 || got[0] != 8 || got[2] != 64 {
		t.Fatalf("ParseSizes = %v, %v", got, err)
	}
	for _, bad := range []string{"", ",", "8,-1", "8,x", "16,16"} {
		if _, err := ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%q) accepted", bad)
		}
	}
}

// TestSensAndExtReports covers the new drivers the registry exposed.
func TestSensAndExtReports(t *testing.T) {
	e := tinyEnv()
	rows, err := Sens(e, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("sens rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Prop.SigmaPP <= 0 || len(r.Prop.Sensitivities) == 0 {
			t.Fatalf("degenerate propagation %+v", r)
		}
	}
	tabs := SensReports(rows)
	if len(tabs) != 2 || len(tableRows(t, tabs[0])) != 4 || len(tableRows(t, tabs[1])) == 0 {
		t.Fatalf("sens tables drifted")
	}
	if !strings.Contains(FormatSens(rows, 16), "σ(tdp)") {
		t.Fatal("sens text drifted")
	}
	ext, err := ExtTable1(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tableRows(t, ExtTable1Report(ext, 0))); got != 4 {
		t.Fatalf("ext table rows %d", got)
	}
}
