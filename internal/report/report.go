// Package report renders experiment results as machine-readable CSV,
// Markdown and JSON tables, complementing the paper-style plain-text
// formatters in internal/exp. The CLI's -format flag and the workload
// registry's Result contract route through here, so every experiment
// shares one encoder per format instead of rendering per table.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a generic column-oriented result table. Rows holds the
// rendered string cells (the CSV/Markdown payload); Appendf also retains
// each row's original typed values, which the JSON encoder emits as JSON
// numbers/booleans instead of strings.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// vals mirrors Rows with the pre-rendering values. Kept unexported:
	// the rendering contract is Write, not direct access.
	vals [][]any
}

// New creates a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Appendf adds a row of formatted values; each value is rendered with %v
// (floats with %.6g). The original typed values are retained so the JSON
// encoder can emit numbers as JSON numbers instead of strings.
func (t *Table) Appendf(values ...any) error {
	if len(values) != len(t.Columns) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(values), len(t.Columns))
	}
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
	return nil
}

// csvEscape quotes a cell when it contains separators, quotes or newlines
// (RFC 4180).
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n\r") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// WriteCSV emits the table as RFC-4180 CSV with a header row. The title
// becomes a leading comment line when non-empty.
func (t *Table) WriteCSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		esc := make([]string, len(cells))
		for i, c := range cells {
			esc[i] = csvEscape(c)
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

// WriteMarkdown emits the table as a GitHub-flavoured Markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
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

// jsonValue renders one cell value as a JSON literal. Numbers stay JSON
// numbers (full float64 precision, non-finite values become null, so the
// output always parses), booleans stay booleans, and everything else is
// rendered through its string form. Field *names* are the stable part of
// the contract; numeric cells additionally keep full precision here where
// the CSV renderer rounds to %.6g.
func jsonValue(v any) string {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "null"
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return jsonValue(float64(x))
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

// WriteJSON emits the table as one JSON object: the title and a "rows"
// array with one object per record, keyed by the column names in column
// order. Column names are the stable field names of the machine-readable
// contract — the same identifiers the CSV header row uses.
func (t *Table) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{")
	fmt.Fprintf(&b, `"title":%s,"rows":[`, jsonValue(t.Title))
	for i, vals := range t.vals {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("{")
		for j, c := range t.Columns {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `%s:%s`, jsonValue(c), jsonValue(vals[j]))
		}
		b.WriteString("}")
	}
	b.WriteString("]}")
	_, err := io.WriteString(w, b.String())
	return err
}

// Format selects an output encoding.
type Format int

const (
	FormatText Format = iota // paper-style plain text (handled by exp)
	FormatCSV
	FormatMarkdown
	FormatJSON
)

// ParseFormat maps a CLI flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "text":
		return FormatText, nil
	case "csv":
		return FormatCSV, nil
	case "md", "markdown":
		return FormatMarkdown, nil
	case "json":
		return FormatJSON, nil
	default:
		return FormatText, fmt.Errorf("report: unknown format %q (want text, csv, md or json)", s)
	}
}

// Write emits the table in the chosen non-text format.
func (t *Table) Write(w io.Writer, f Format) error {
	switch f {
	case FormatCSV:
		return t.WriteCSV(w)
	case FormatMarkdown:
		return t.WriteMarkdown(w)
	case FormatJSON:
		if err := t.WriteJSON(w); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\n")
		return err
	default:
		return fmt.Errorf("report: table has no plain-text renderer (use the exp formatters)")
	}
}

// WriteTables emits a sequence of tables in one non-text format — the
// single rendering path every workload Result goes through. CSV and
// Markdown concatenate the tables with a blank separator line; JSON emits
// one array of table objects regardless of the table count, so consumers
// can always address `.[i].rows[]`.
func WriteTables(w io.Writer, f Format, tables ...*Table) error {
	if f == FormatJSON {
		if _, err := io.WriteString(w, "["); err != nil {
			return err
		}
		for i, t := range tables {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if err := t.WriteJSON(w); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "]\n")
		return err
	}
	for i, t := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := t.Write(w, f); err != nil {
			return err
		}
	}
	return nil
}

// EncodeTables is WriteTables into one byte slice — the reusable result
// envelope for consumers that hash, cache or re-serve rendered results
// (internal/serve embeds the JSON form verbatim in its run bodies). The
// bytes are deterministic for deterministic table contents: equal tables
// encode byte-identically.
func EncodeTables(f Format, tables ...*Table) ([]byte, error) {
	var b bytes.Buffer
	if err := WriteTables(&b, f, tables...); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
