// Package report renders experiment results as machine-readable CSV,
// Markdown and JSON tables, complementing the paper-style plain-text
// formatters in internal/exp. The CLI's -format flag and the workload
// registry's Result contract route through here, so every experiment
// shares one encoder per format instead of rendering per table.
//
// A Table holds each row's typed values once, tagged in one byte store
// per table, and renders nothing until it is written: an encoder appends
// every cell of the table into one buffer with strconv's Append
// functions and writes that buffer once. A cell is a string, a float64,
// a float32, an int, an int64, a bool or nil; Table.Appendf panics on a
// value of any other kind.
package report

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Table is a generic column-oriented result table.
type Table struct {
	Title   string
	Columns []string
	// cells holds the values Appendf received, row after row,
	// len(Columns) to a row, each a kind byte and its payload (see
	// cellNil); rows counts the rows, so that a table without columns
	// still has them. Kept unexported: the rendering contract is Write,
	// not direct access.
	cells []byte
	rows  int
}

// The kind byte that starts each cell in Table.cells. A number is
// followed by 8 bytes of little-endian value bits (a float32 widened to
// float64, an int as int64), a string by its uvarint length and its
// bytes; nil and the booleans carry nothing more.
const (
	cellNil byte = iota
	cellFalse
	cellTrue
	cellInt
	cellFloat64
	cellFloat32
	cellString
)

// New creates a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Appendf adds a row of values, one per column. A value is a string, a
// float64, a float32, an int, an int64, a bool or nil: the kinds the
// table stores. CSV and Markdown render a float with %.6g and any other
// cell as its decimal, boolean or string text (nil as <nil>); JSON keeps
// numbers and booleans as JSON numbers and booleans (see WriteJSON). A
// row whose width differs from the table's, or a value of another kind,
// can only come from a bug in the caller, so Appendf panics on one,
// naming the column of a refused value, and leaves the table as it was.
// The first row reserves room for 16 rows of its size.
func (t *Table) Appendf(values ...any) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(values), len(t.Columns)))
	}
	if t.cells == nil {
		t.cells = make([]byte, 0, 16*rowSize(values))
	}
	start := len(t.cells)
	for i, v := range values {
		var ok bool
		if t.cells, ok = storeCell(t.cells, v); !ok {
			t.cells = t.cells[:start]
			panic("report: column " + strconv.Quote(t.Columns[i]) + " holds a value that is not a string, float64, float32, int, int64, bool or nil")
		}
	}
	t.rows++
}

// rowSize returns the bytes values take in the store.
func rowSize(values []any) int {
	n := len(values)
	for _, v := range values {
		switch x := v.(type) {
		case string:
			n += (bits.Len(uint(len(x))|1)+6)/7 + len(x)
		case float64, float32, int, int64:
			n += 8
		}
	}
	return n
}

// storeCell appends v to the store b as a kind byte and its payload. It
// reports false, with b unchanged, for a kind the store does not hold.
// Nothing here may hand v to fmt or reflect: that would make Appendf's
// values escape, and every boxed number with them.
func storeCell(b []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case string:
		return append(binary.AppendUvarint(append(b, cellString), uint64(len(x))), x...), true
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, cellFloat64), math.Float64bits(x)), true
	case float32:
		return binary.LittleEndian.AppendUint64(append(b, cellFloat32), math.Float64bits(float64(x))), true
	case int:
		return binary.LittleEndian.AppendUint64(append(b, cellInt), uint64(x)), true
	case int64:
		return binary.LittleEndian.AppendUint64(append(b, cellInt), uint64(x)), true
	case bool:
		if x {
			return append(b, cellTrue), true
		}
		return append(b, cellFalse), true
	case nil:
		return append(b, cellNil), true
	}
	return b, false
}

// nextCell decodes the cell at the head of the store s: its kind, the
// value bits of a number, the bytes of a string (within s) and the
// store after the cell.
func nextCell(s []byte) (kind byte, v uint64, str, rest []byte) {
	kind, s = s[0], s[1:]
	switch kind {
	case cellInt, cellFloat64, cellFloat32:
		return kind, binary.LittleEndian.Uint64(s), nil, s[8:]
	case cellString:
		n, k := binary.Uvarint(s)
		return kind, 0, s[k : k+int(n)], s[k+int(n):]
	}
	return kind, 0, nil, s
}

// size bounds the bytes the table renders to in format f, unless a
// string needs escaping: a float takes at most 13 bytes at %.6g
// (-1.23457e+100) and 24 in JSON (-2.2250738585072014e-308), any other
// number or literal at most 20, and JSON repeats every column name in
// every row.
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
	for s := t.cells; len(s) > 0; {
		var kind byte
		var str []byte
		switch kind, _, str, s = nextCell(s); kind {
		case cellString:
			n += len(str) + 2
		case cellFloat64, cellFloat32:
			n += float
		default:
			n += 20
		}
	}
	return n
}

// appendCell appends the cell at the head of the store s in format f
// and returns the store after it. CSV and Markdown render a float with
// %.6g, an integer in decimal and nil as <nil>. JSON keeps numbers at
// full float64 precision (shortest 'g' form of a float32's widened
// value too) and booleans as booleans, and renders non-finite numbers
// and nil as null, so the output always parses. A string cell is
// rendered from the store's bytes.
func appendCell(b, s []byte, f Format) ([]byte, []byte) {
	kind, v, str, rest := nextCell(s)
	switch kind {
	case cellString:
		return appendString(b, str, f), rest
	case cellFloat64:
		return appendFloat(b, math.Float64frombits(v), 64, f), rest
	case cellFloat32:
		return appendFloat(b, math.Float64frombits(v), 32, f), rest
	case cellInt:
		return strconv.AppendInt(b, int64(v), 10), rest
	case cellTrue, cellFalse:
		return strconv.AppendBool(b, kind == cellTrue), rest
	}
	if f == FormatJSON {
		return append(b, "null"...), rest
	}
	return append(b, "<nil>"...), rest
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
// a line break, and as itself otherwise. It takes a string cell's bytes
// as they lie in the store, so only a JSON string that needs escaping
// allocates.
func appendString[T ~string | ~[]byte](b []byte, s T, f Format) []byte {
	switch {
	case f == FormatJSON && jsonPlain(s):
		return append(append(append(b, '"'), s...), '"')
	case f == FormatJSON:
		m, _ := json.Marshal(string(s))
		return append(b, m...)
	case f == FormatCSV && csvQuoted(s):
		b = append(b, '"')
		for i := 0; i < len(s); i++ {
			if s[i] == '"' {
				b = append(b, '"')
			}
			b = append(b, s[i])
		}
		return append(b, '"')
	default:
		return append(b, s...)
	}
}

// jsonPlain reports whether s is printable ASCII other than the quote,
// the backslash and the HTML-significant <, > and &: a string that
// encoding/json renders as itself between quotes.
func jsonPlain[T ~string | ~[]byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// csvQuoted reports whether s holds a comma, a quote or a line break: a
// field RFC 4180 quotes.
func csvQuoted[T ~string | ~[]byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\n', '\r':
			return true
		}
	}
	return false
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
	for r, s := 0, t.cells; r < t.rows; r++ {
		b = append(b, pre...)
		for i := range t.Columns {
			if i > 0 {
				b = append(b, sep...)
			}
			b, s = appendCell(b, s, f)
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
	for r, s := 0, t.cells; r < t.rows; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		for i, c := range t.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendString(b, c, FormatJSON), ':')
			b, s = appendCell(b, s, FormatJSON)
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
