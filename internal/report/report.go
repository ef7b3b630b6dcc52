// Package report renders experiment results as machine-readable CSV,
// Markdown and JSON tables, complementing the paper-style plain-text
// formatters in internal/exp. The CLI's -format flag and the workload
// registry's Result contract route through here, so every experiment
// shares one encoder per format instead of rendering per table.
//
// A Table holds each row's typed values once and renders nothing until
// it is written: an encoder appends every cell of the table into one
// buffer with strconv's Append functions and writes that buffer once.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a generic column-oriented result table.
type Table struct {
	Title   string
	Columns []string
	// cells holds the values Appendf received, row after row,
	// len(Columns) to a row; rows counts the rows, so that a table
	// without columns still has them. Kept unexported: the rendering
	// contract is Write, not direct access.
	cells []any
	rows  int
}

// New creates a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Appendf adds a row of values, one per column. CSV and Markdown render
// a float64 or float32 cell with %.6g and any other cell with %v; JSON
// keeps numbers and booleans as JSON numbers and booleans (see
// WriteJSON). A row whose width differs from the table's can only come
// from a bug in the caller, so Appendf panics on one.
func (t *Table) Appendf(values ...any) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(values), len(t.Columns)))
	}
	t.cells = append(t.cells, values...)
	t.rows++
}

// row returns the values of row r.
func (t *Table) row(r int) []any {
	n := len(t.Columns)
	return t.cells[r*n : r*n+n]
}

// size bounds the bytes the table renders to in format f, unless a
// string needs escaping or a value renders through %v: a float takes at
// most 13 bytes at %.6g (-1.23457e+100) and 24 in JSON
// (-2.2250738585072014e-308), any other number or literal at most 20,
// and JSON repeats every column name in every row.
func (t *Table) size(f Format) int {
	n, row, float := 64+len(t.Title), 4, 13
	if f == FormatJSON {
		float = 24
	}
	for _, c := range t.Columns {
		n += len(c) + 8
		row += 3
		if f == FormatJSON {
			row += len(c) + 3
		}
	}
	n += t.rows * row
	for _, v := range t.cells {
		switch x := v.(type) {
		case string:
			n += len(x) + 2
		case float64, float32:
			n += float
		default:
			n += 20
		}
	}
	return n
}

// appendCell appends one cell in format f. CSV and Markdown render a
// float with %.6g and any other value with %v. JSON keeps numbers at
// full float64 precision (shortest 'g' form; a float32 is widened
// first) and booleans as booleans, renders non-finite numbers and nil as
// null, so the output always parses, and any other value as the JSON
// string of its %v text.
func appendCell(b []byte, v any, f Format) []byte {
	switch x := v.(type) {
	case float64:
		return appendFloat(b, x, 64, f)
	case float32:
		return appendFloat(b, float64(x), 32, f)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case bool:
		return strconv.AppendBool(b, x)
	case string:
		return appendString(b, x, f)
	case nil:
		if f == FormatJSON {
			return append(b, "null"...)
		}
		return append(b, "<nil>"...)
	default:
		return appendString(b, fmt.Sprint(x), f)
	}
}

// appendFloat appends x, a float of the given bit size, in format f.
func appendFloat(b []byte, x float64, bits int, f Format) []byte {
	switch {
	case f != FormatJSON:
		return strconv.AppendFloat(b, x, 'g', 6, bits)
	case math.IsNaN(x) || math.IsInf(x, 0):
		return append(b, "null"...)
	default:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	}
}

// appendString appends s in format f: as encoding/json renders it in
// JSON, quoted per RFC 4180 in CSV when it holds a separator, a quote or
// a line break, and as itself otherwise.
func appendString(b []byte, s string, f Format) []byte {
	switch {
	case f == FormatJSON && jsonPlain(s):
		return append(append(append(b, '"'), s...), '"')
	case f == FormatJSON:
		m, _ := json.Marshal(s)
		return append(b, m...)
	case f == FormatCSV && strings.ContainsAny(s, ",\"\n\r"):
		return append(append(append(b, '"'), strings.ReplaceAll(s, `"`, `""`)...), '"')
	default:
		return append(b, s...)
	}
}

// jsonPlain reports whether s is printable ASCII other than the quote,
// the backslash and the HTML-significant <, > and &: a string that
// encoding/json renders as itself between quotes.
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendLines appends the table as lines of cells: RFC-4180 CSV with a
// header row, or a GitHub-flavoured Markdown table. A non-empty title
// comes first, as a "# title" comment line in CSV and a "### title"
// heading in Markdown.
func (t *Table) appendLines(b []byte, f Format) []byte {
	head, pre, sep, end := "# ", "", ",", "\n"
	if f == FormatMarkdown {
		head, pre, sep, end = "### ", "| ", " | ", " |\n"
	}
	if t.Title != "" {
		b = append(append(append(b, head...), t.Title...), '\n')
		if f == FormatMarkdown {
			b = append(b, '\n')
		}
	}
	b = append(b, pre...)
	for i, c := range t.Columns {
		if i > 0 {
			b = append(b, sep...)
		}
		b = appendString(b, c, f)
	}
	b = append(b, end...)
	if f == FormatMarkdown {
		b = append(b, '|')
		for i := range t.Columns {
			if i > 0 {
				b = append(b, '|')
			}
			b = append(b, "---"...)
		}
		b = append(b, "|\n"...)
	}
	for r := 0; r < t.rows; r++ {
		b = append(b, pre...)
		for i, v := range t.row(r) {
			if i > 0 {
				b = append(b, sep...)
			}
			b = appendCell(b, v, f)
		}
		b = append(b, end...)
	}
	return b
}

// appendJSON appends the table as one JSON object: the title and a
// "rows" array with one object per record, keyed by the column names in
// column order. Column names are the stable field names of the
// machine-readable contract — the same identifiers the CSV header row
// uses.
func (t *Table) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"title":`...), t.Title, FormatJSON)
	b = append(b, `,"rows":[`...)
	for r := 0; r < t.rows; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		for i, v := range t.row(r) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendString(b, t.Columns[i], FormatJSON), ':')
			b = appendCell(b, v, FormatJSON)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendTo appends the table in a non-text format.
func (t *Table) appendTo(b []byte, f Format) ([]byte, error) {
	switch f {
	case FormatCSV, FormatMarkdown:
		return t.appendLines(b, f), nil
	case FormatJSON:
		return t.appendJSON(b), nil
	default:
		return nil, errNoText
	}
}

var errNoText = errors.New("report: table has no plain-text renderer (use the exp formatters)")

// WriteCSV emits the table as RFC-4180 CSV with a header row. The title
// becomes a leading comment line when non-empty.
func (t *Table) WriteCSV(w io.Writer) error {
	_, err := w.Write(t.appendLines(make([]byte, 0, t.size(FormatCSV)), FormatCSV))
	return err
}

// WriteMarkdown emits the table as a GitHub-flavoured Markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	_, err := w.Write(t.appendLines(make([]byte, 0, t.size(FormatMarkdown)), FormatMarkdown))
	return err
}

// WriteJSON emits the table as one JSON object: {"title": …, "rows":
// [{<column>: <value>, …}, …]}, numbers at full float64 precision and
// non-finite numbers as null.
func (t *Table) WriteJSON(w io.Writer) error {
	_, err := w.Write(t.appendJSON(make([]byte, 0, t.size(FormatJSON))))
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

// Write emits the table in the chosen non-text format; JSON ends with a
// newline.
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
		return errNoText
	}
}

// WriteTables emits a sequence of tables in one non-text format — the
// single rendering path every workload Result goes through. CSV and
// Markdown concatenate the tables with a blank separator line; JSON emits
// one array of table objects regardless of the table count, so consumers
// can always address `.[i].rows[]`.
func WriteTables(w io.Writer, f Format, tables ...*Table) error {
	b, err := EncodeTables(f, tables...)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeTables is WriteTables into one byte slice — the reusable result
// envelope for consumers that hash, cache or re-serve rendered results
// (internal/serve embeds the JSON form verbatim in its run bodies). The
// bytes are deterministic for deterministic table contents: equal tables
// encode byte-identically.
func EncodeTables(f Format, tables ...*Table) ([]byte, error) {
	n := 4
	for _, t := range tables {
		n += t.size(f) + 1
	}
	b, sep := make([]byte, 0, n), byte('\n')
	if f == FormatJSON {
		b, sep = append(b, '['), ','
	}
	for i, t := range tables {
		if i > 0 {
			b = append(b, sep)
		}
		var err error
		if b, err = t.appendTo(b, f); err != nil {
			return nil, err
		}
	}
	if f == FormatJSON {
		b = append(b, "]\n"...)
	}
	return b, nil
}
