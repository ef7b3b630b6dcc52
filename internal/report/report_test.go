package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func build(t *testing.T) *Table {
	t.Helper()
	tb := New("demo", "name", "value")
	tb.Appendf("plain", "1")
	tb.Appendf("float", 3.14159)
	tb.Appendf(`comma, "quote"`, "2")
	return tb
}

// TestAppendArity: a row whose width differs from the table's is a bug
// in the caller, so Appendf panics on it rather than dropping the row.
func TestAppendArity(t *testing.T) {
	tb := New("x", "a", "b")
	mustPanic := func(values ...any) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("arity mismatch %v accepted", values)
			}
		}()
		tb.Appendf(values...)
	}
	mustPanic("only one")
	mustPanic(1, 2, 3)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil || b.String() != "# x\na,b\n" {
		t.Fatalf("a refused row reached the table: %q, %v", b.String(), err)
	}
}

// stringerCell renders through its String method, which a table does
// not call.
type stringerCell struct{ s string }

func (c stringerCell) String() string { return c.s }

// TestAppendfRefusesOtherKinds: a table stores strings, float64s,
// float32s, ints, int64s, booleans and nil. A value of any other kind is
// a bug in the caller, so Appendf panics with a message that names the
// column and drops the cells of the row it already stored.
func TestAppendfRefusesOtherKinds(t *testing.T) {
	tb := New("x", "name", "value")
	tb.Appendf("kept", 1.5)
	var want strings.Builder
	if err := tb.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{stringerCell{"s"}, 1500 * time.Millisecond, []int{1, 2}, struct{}{}, int32(-5), uint8(3)} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, `column "value"`) {
					t.Errorf("%T: panic %q does not name the column", v, msg)
				}
			}()
			tb.Appendf("refused", v)
		}()
		var got strings.Builder
		if err := tb.WriteCSV(&got); err != nil || got.String() != want.String() {
			t.Fatalf("%T: a refused row reached the table: %q, %v", v, got.String(), err)
		}
	}
}

// TestAppendfAllocations pins what building a table costs: the table,
// its columns and one store, however many numbers and strings its rows
// hold, since no cell is boxed on the heap. The table has Fig. 4's shape
// and row count: a string, an int above 255 (which no static box holds)
// and three floats a row, 12 rows.
func TestAppendfAllocations(t *testing.T) {
	options := []string{"LELELE", "SADP", "EUV"}
	var tb *Table
	n := testing.AllocsPerRun(20, func() {
		tb = New("Fig. 4: worst-case td impact (SPICE)", "option", "wordlines", "td_nom_ps", "td_wc_ps", "tdp_pct")
		for i := 0; i < 12; i++ {
			x := float64(i) + 0.5
			tb.Appendf(options[i%3], 16<<(i%4+4), x*1e-10*1e12, x*1.1e-10*1e12, x/3)
		}
	})
	if n > 3 {
		t.Errorf("building a 12-row table: %v allocations, want at most 3", n)
	}
	if tb.rows != 12 {
		t.Fatalf("%d rows", tb.rows)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := build(t).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		"# demo",
		"name,value",
		"plain,1",
		"float,3.14159",
		`"comma, ""quote""",2`,
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("CSV missing %q:\n%s", w, out)
		}
	}
}

func TestWriteMarkdown(t *testing.T) {
	var b strings.Builder
	if err := build(t).WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{"### demo", "| name | value |", "|---|---|", "| plain | 1 |"} {
		if !strings.Contains(out, w) {
			t.Fatalf("markdown missing %q:\n%s", w, out)
		}
	}
}

func TestParseFormat(t *testing.T) {
	cases := map[string]Format{
		"": FormatText, "text": FormatText,
		"csv": FormatCSV, "md": FormatMarkdown, "markdown": FormatMarkdown,
		"json": FormatJSON,
	}
	for in, want := range cases {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestWriteDispatch(t *testing.T) {
	tb := build(t)
	var b strings.Builder
	if err := tb.Write(&b, FormatCSV); err != nil {
		t.Fatal(err)
	}
	if err := tb.Write(&b, FormatMarkdown); err != nil {
		t.Fatal(err)
	}
	if err := tb.Write(&b, FormatText); err == nil {
		t.Fatal("text dispatch must defer to exp formatters")
	}
}

// TestJSONRoundTrip is the encoder contract: one row-object per record,
// keyed by the column names, with numbers preserved as JSON numbers at
// full float64 precision — decode it back and every typed value survives.
func TestJSONRoundTrip(t *testing.T) {
	tb := New("round trip", "name", "count", "sigma_pp", "flag")
	tb.Appendf("LE3 8nm OL", 64, 2.2734567890123456, true)
	tb.Appendf(`comma, "quote"`, 1024, -0.125, false)
	var b strings.Builder
	if err := tb.Write(&b, FormatJSON); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title string           `json:"title"`
		Rows  []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if got.Title != "round trip" || len(got.Rows) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	r := got.Rows[0]
	if r["name"] != "LE3 8nm OL" || r["count"] != float64(64) || r["flag"] != true {
		t.Fatalf("row 0 drifted: %+v", r)
	}
	if r["sigma_pp"] != 2.2734567890123456 {
		t.Fatalf("float lost precision: %v", r["sigma_pp"])
	}
	if got.Rows[1]["name"] != `comma, "quote"` {
		t.Fatalf("string escaping drifted: %q", got.Rows[1]["name"])
	}
}

// TestJSONNonFinite pins the non-finite policy: NaN/Inf cells become null
// so the document always parses.
func TestJSONNonFinite(t *testing.T) {
	tb := New("", "v")
	tb.Appendf(math.NaN())
	tb.Appendf(math.Inf(1))
	var b strings.Builder
	if err := tb.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("non-finite output must stay valid JSON: %v\n%s", err, b.String())
	}
	if got.Rows[0]["v"] != nil || got.Rows[1]["v"] != nil {
		t.Fatalf("non-finite cells must decode as null: %+v", got.Rows)
	}
}

// TestWriteTables covers the multi-table path: JSON is always one array
// of table objects, CSV separates tables with a blank line.
func TestWriteTables(t *testing.T) {
	a, b := build(t), build(t)
	b.Title = "second"
	var out strings.Builder
	if err := WriteTables(&out, FormatJSON, a, b); err != nil {
		t.Fatal(err)
	}
	var arr []struct {
		Title string           `json:"title"`
		Rows  []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out.String()), &arr); err != nil {
		t.Fatalf("tables output invalid: %v\n%s", err, out.String())
	}
	if len(arr) != 2 || arr[0].Title != "demo" || arr[1].Title != "second" || len(arr[1].Rows) != 3 {
		t.Fatalf("decoded %+v", arr)
	}
	out.Reset()
	if err := WriteTables(&out, FormatCSV, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\n\n# second\n") {
		t.Fatalf("CSV tables not blank-line separated:\n%s", out.String())
	}
	// String cells stay JSON strings, even when they read as numbers.
	out.Reset()
	if err := WriteTables(&out, FormatJSON, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"name":"plain","value":"1"`) {
		t.Fatalf("string-appended row drifted:\n%s", out.String())
	}
}

// TestEncodeTables: the byte-slice envelope matches WriteTables exactly
// and is deterministic across calls — the property the serve layer's
// content-addressed cache (byte-identical hit vs cold) relies on.
func TestEncodeTables(t *testing.T) {
	mk := func() *Table {
		tb := New("enc", "k", "v")
		tb.Appendf("a", 1.25)
		tb.Appendf("b", 2)
		return tb
	}
	got, err := EncodeTables(FormatJSON, mk())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := WriteTables(&want, FormatJSON, mk()); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("EncodeTables != WriteTables:\n%q\n%q", got, want.String())
	}
	again, err := EncodeTables(FormatJSON, mk())
	if err != nil || string(again) != string(got) {
		t.Fatalf("EncodeTables not deterministic: %v\n%q\n%q", err, again, got)
	}
	var arr []any
	if err := json.Unmarshal(got, &arr); err != nil || len(arr) != 1 {
		t.Fatalf("envelope not a one-table JSON array: %v\n%s", err, got)
	}
}
