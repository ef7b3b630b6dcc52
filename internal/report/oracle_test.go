package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// oracleTable is the encoder the package had before a Table kept each
// row's values once: Appendf rendered every cell with fmt.Sprintf as it
// arrived and kept a boxed copy beside it for JSON, and the writers
// formatted each line and each cell on their own. The tests below hold
// the single-buffer encoders to its bytes.
type oracleTable struct {
	Title   string
	Columns []string
	Rows    [][]string
	vals    [][]any
}

func (t *oracleTable) Appendf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.6g", x)
		case float32:
			cells[i] = fmt.Sprintf("%.6g", x)
		default:
			cells[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, cells)
	t.vals = append(t.vals, append([]any(nil), values...))
}

func oracleCSVEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n\r") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func (t *oracleTable) WriteCSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		esc := make([]string, len(cells))
		for i, c := range cells {
			esc[i] = oracleCSVEscape(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(esc, ","))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

func (t *oracleTable) WriteMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "|%s|\n", strings.Join(sep, "|")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | ")); err != nil {
			return err
		}
	}
	return nil
}

func oracleJSONValue(v any) string {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "null"
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return oracleJSONValue(float64(x))
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case bool:
		return strconv.FormatBool(x)
	case string:
		b, _ := json.Marshal(x)
		return string(b)
	case nil:
		return "null"
	default:
		b, _ := json.Marshal(fmt.Sprintf("%v", x))
		return string(b)
	}
}

func (t *oracleTable) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{")
	fmt.Fprintf(&b, `"title":%s,"rows":[`, oracleJSONValue(t.Title))
	for i, vals := range t.vals {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("{")
		for j, c := range t.Columns {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `%s:%s`, oracleJSONValue(c), oracleJSONValue(vals[j]))
		}
		b.WriteString("}")
	}
	b.WriteString("]}")
	_, err := io.WriteString(w, b.String())
	return err
}

// oracleTables is the old WriteTables: a JSON array of table objects,
// or the tables one after another with a blank line between them.
func oracleTables(f Format, tables ...*oracleTable) string {
	var b strings.Builder
	if f == FormatJSON {
		b.WriteString("[")
		for i, t := range tables {
			if i > 0 {
				b.WriteString(",")
			}
			_ = t.WriteJSON(&b)
		}
		b.WriteString("]\n")
		return b.String()
	}
	for i, t := range tables {
		if i > 0 {
			b.WriteString("\n")
		}
		if f == FormatCSV {
			_ = t.WriteCSV(&b)
		} else {
			_ = t.WriteMarkdown(&b)
		}
	}
	return b.String()
}

// matchOracle builds one table from rows both ways and requires equal
// bytes from every writer: each format alone, Write's JSON line, and
// WriteTables/EncodeTables over the table twice.
func matchOracle(t *testing.T, title string, cols []string, rows [][]any) {
	t.Helper()
	tb, ot := New(title, cols...), &oracleTable{Title: title, Columns: cols}
	for _, r := range rows {
		tb.Appendf(r...)
		ot.Appendf(r...)
	}
	for _, c := range []struct {
		name      string
		got, want func(io.Writer) error
	}{
		{"csv", tb.WriteCSV, ot.WriteCSV},
		{"md", tb.WriteMarkdown, ot.WriteMarkdown},
		{"json", tb.WriteJSON, ot.WriteJSON},
		{"json line", func(w io.Writer) error { return tb.Write(w, FormatJSON) },
			func(w io.Writer) error { _ = ot.WriteJSON(w); _, err := io.WriteString(w, "\n"); return err }},
	} {
		var got, want bytes.Buffer
		if err := c.got(&got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_ = c.want(&want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s differs from the oracle:\n got %q\nwant %q", c.name, got.Bytes(), want.Bytes())
		}
	}
	for _, f := range []Format{FormatCSV, FormatMarkdown, FormatJSON} {
		got, err := EncodeTables(f, tb, tb)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleTables(f, ot, ot); string(got) != want {
			t.Fatalf("tables in format %d differ from the oracle:\n got %q\nwant %q", f, got, want)
		}
	}
}

// TestEncodersMatchOracle covers every kind of cell a table stores and
// the edges of each encoder: non-finite numbers, negative zero,
// subnormals, the points where %g changes notation at six digits and at
// shortest precision, float32 cells, integers at both ends, booleans,
// nil, and strings holding CSV separators, quotes, line breaks, each
// HTML-significant byte alone and together, other control bytes,
// U+2028, U+2029 and invalid UTF-8 — in the title and the column names
// too.
func TestEncodersMatchOracle(t *testing.T) {
	title := "Fig. 5, \"ε\" <&> line\u2028sep\xff"
	cols := []string{"option", "a,b", `q"uote`, "x<y>&z", "σ_pp"}
	rows := [][]any{
		{"LE3", 1.0, 64, true, nil},
		{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.0},
		{5e-324, 1e-310, 2.2250738585072014e-308, math.MaxFloat64, -math.SmallestNonzeroFloat64},
		{1e5, 1e6, 999999.5, 123456.5, 1e20},
		{1e21, 1e-4, 1e-5, 0.0001234565, 1.0 / 3},
		{-2.2734567890123456, 1e100, 0.1, 100000.0, 1e15},
		{float32(0.1), float32(math.NaN()), float32(math.Inf(1)), float32(1e-40), float32(16777217)},
		{float32(1e6), float32(123456.7), float32(-0.0), float32(math.Copysign(0, -1)), float32(1e-5)},
		{0, -7, 255, 256, 1 << 40},
		{int64(math.MinInt64), int64(math.MaxInt64), -5, 3, false},
		{"plain", "comma, here", `"quoted"`, "line\nbreak", "cr\rhere"},
		{"<tag>&amp;", "sep\u2028ara\u2029tor", "bad\xffutf8", "tab\tback\\slash", "\b\f\x00\x1f"},
		{"σ_spice Δ", "", "\x7f", "\ufffd", "\u2028"},
		{"R&D", "a<b", "a>b", `back\`, `say "hi"`},
		{"ctl\x01", "\u2029", "tilde~", "é", "\t"},
	}
	matchOracle(t, title, cols, rows)
	matchOracle(t, "", cols, rows)
	matchOracle(t, "no rows", cols, nil)
	matchOracle(t, "no columns", nil, [][]any{{}, {}})
}

// TestEncoderAllocations pins what writing a table costs: one buffer,
// however many rows the table has.
func TestEncoderAllocations(t *testing.T) {
	for _, rows := range []int{8, 64, 512} {
		tb := New("Fig. 5: Monte-Carlo tdp distributions", "option", "n", "samples", "mean_pp", "std_pp", "p95_pp")
		for i := 0; i < rows; i++ {
			// Floats of the longest renderings at both precisions.
			x := float64(i + 1)
			tb.Appendf("LE3", 64+i, 10000, -math.Pi*1e-100*x, -math.E*1e-200*x, -math.Sqrt2*1e-300*x)
		}
		for _, c := range []struct {
			name  string
			write func(io.Writer) error
		}{{"WriteCSV", tb.WriteCSV}, {"WriteJSON", tb.WriteJSON}} {
			if n := testing.AllocsPerRun(20, func() { _ = c.write(io.Discard) }); n > 1 {
				t.Errorf("%s of %d rows: %v allocations, want at most 1", c.name, rows, n)
			}
		}
	}
}

// TestSizeBoundsRendering: Table.size bounds every format's rendering of
// the longest numbers and literals, so writing a table of them never
// grows its buffer.
func TestSizeBoundsRendering(t *testing.T) {
	floats := New("floats", "a", "b", "c", "d", "e", "f", "g", "h")
	ints := New("ints", "a", "b", "c", "d", "e", "f", "g", "h")
	for i := 0; i < 64; i++ {
		x, y := -math.Pi*1e-200*float64(i+1), -math.MaxFloat32/float32(i+1)
		floats.Appendf(x, y, x, y, x, y, x, y)
		n := math.MinInt64 + i
		ints.Appendf(n, int64(n), n, int64(n), n, int64(n), n, int64(n))
	}
	for _, tb := range []*Table{floats, ints} {
		for _, f := range []Format{FormatCSV, FormatMarkdown, FormatJSON} {
			if b, _ := tb.appendTo(nil, f); len(b) > tb.size(f) {
				t.Errorf("%s in format %d: %d bytes, bound %d", tb.Title, f, len(b), tb.size(f))
			}
		}
	}
}

// FuzzTableEncoders holds the encoders to the oracle on arbitrary
// strings (titles, column names, cells) and numbers.
func FuzzTableEncoders(f *testing.F) {
	f.Add("Fig. 5", "option", "LE3", 1.5, float32(0.1), int64(64), true)
	f.Add("a,\"b\"\n<&>", "x\u2028y", "bad\xff", math.Inf(-1), float32(1e-40), int64(math.MinInt64), false)
	f.Add("", "", "", math.NaN(), float32(math.NaN()), int64(0), false)
	f.Fuzz(func(t *testing.T, title, col, s string, x float64, y float32, n int64, flag bool) {
		cols := []string{col, s, "x", "y", "n"}
		rows := [][]any{
			{s, x, y, n, flag},
			{title, -x, float64(y), int(n), nil},
			{s, x * 1e-300, -y, x / 3, col},
		}
		matchOracle(t, title, cols, rows)
	})
}
