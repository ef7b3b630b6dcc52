package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"mpsram/internal/device"
)

// This file keeps a SPICE-deck parser, the inverse of WriteSpice, that
// parse_test.go round-trips the writer through. It accepts the element
// subset this library emits (R, C, V with DC/PULSE, I, M) plus comments,
// .end, and engineering-notation values.

// ModelResolver maps a model name in a deck to a device card.
type ModelResolver func(name string) (*device.MOS, error)

// ParseSpice reads a SPICE-flavoured deck (as produced by WriteSpice) and
// reconstructs the netlist. Unknown cards produce errors with line
// numbers. The resolver may be nil if the deck has no MOSFETs.
func ParseSpice(r io.Reader, resolve ModelResolver) (*Netlist, error) {
	n := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		if strings.EqualFold(line, ".end") {
			break
		}
		if err := parseLine(n, line, resolve); err != nil {
			return nil, fmt.Errorf("spice deck line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

func parseLine(n *Netlist, line string, resolve ModelResolver) error {
	// Normalize PULSE(...) into space-separated tokens.
	line = strings.NewReplacer("(", " ", ")", " ", ",", " ").Replace(line)
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	card := fields[0]
	switch {
	case card[0] == 'R' || card[0] == 'r':
		if len(fields) != 4 {
			return fmt.Errorf("resistor wants 4 fields, got %d", len(fields))
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return err
		}
		n.AddR(card[1:], n.Node(fields[1]), n.Node(fields[2]), v)
	case card[0] == 'C' || card[0] == 'c':
		if len(fields) != 4 {
			return fmt.Errorf("capacitor wants 4 fields, got %d", len(fields))
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return err
		}
		n.AddC(card[1:], n.Node(fields[1]), n.Node(fields[2]), v)
	case card[0] == 'V' || card[0] == 'v':
		w, err := parseSource(fields[3:])
		if err != nil {
			return err
		}
		n.AddV(card[1:], n.Node(fields[1]), n.Node(fields[2]), w)
	case card[0] == 'I' || card[0] == 'i':
		w, err := parseSource(fields[3:])
		if err != nil {
			return err
		}
		n.AddI(card[1:], n.Node(fields[1]), n.Node(fields[2]), w)
	case card[0] == 'M' || card[0] == 'm':
		// M<label> d g s b <model> W=<val>
		if len(fields) != 7 {
			return fmt.Errorf("mosfet wants 7 fields, got %d", len(fields))
		}
		if resolve == nil {
			return fmt.Errorf("mosfet %s: no model resolver provided", card)
		}
		model, err := resolve(fields[5])
		if err != nil {
			return err
		}
		wField := fields[6]
		if !strings.HasPrefix(strings.ToUpper(wField), "W=") {
			return fmt.Errorf("mosfet %s: expected W=<value>, got %q", card, wField)
		}
		w, err := ParseValue(wField[2:])
		if err != nil {
			return err
		}
		n.AddM(card[1:], n.Node(fields[1]), n.Node(fields[2]), n.Node(fields[3]), model, w)
	default:
		return fmt.Errorf("unsupported card %q", card)
	}
	return nil
}

// parseSource parses "DC <v>" or "PULSE v0 v1 delay rise fall width".
func parseSource(fields []string) (Waveform, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("source wants a DC or PULSE spec")
	}
	switch strings.ToUpper(fields[0]) {
	case "DC":
		if len(fields) != 2 {
			return nil, fmt.Errorf("DC wants one value")
		}
		v, err := ParseValue(fields[1])
		if err != nil {
			return nil, err
		}
		return DC(v), nil
	case "PULSE":
		if len(fields) != 7 {
			return nil, fmt.Errorf("PULSE wants 6 values, got %d", len(fields)-1)
		}
		var vals [6]float64
		for i := 0; i < 6; i++ {
			v, err := ParseValue(fields[i+1])
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return Pulse{
			V0: vals[0], V1: vals[1], Delay: vals[2],
			Rise: vals[3], Fall: vals[4], Width: vals[5],
		}, nil
	default:
		return nil, fmt.Errorf("unsupported source spec %q", fields[0])
	}
}

// suffixes holds SPICE engineering suffixes (case-insensitive; "meg" must
// be checked before "m").
var suffixes = []struct {
	s string
	m float64
}{
	{"meg", 1e6}, {"t", 1e12}, {"g", 1e9}, {"k", 1e3},
	{"m", 1e-3}, {"u", 1e-6}, {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15}, {"a", 1e-18},
}

// ParseValue parses a SPICE number with optional engineering suffix:
// "4.7k", "25f", "3meg", "1e-12".
func ParseValue(s string) (float64, error) {
	ls := strings.ToLower(strings.TrimSpace(s))
	if ls == "" {
		return 0, fmt.Errorf("empty value")
	}
	for _, suf := range suffixes {
		if strings.HasSuffix(ls, suf.s) {
			base := strings.TrimSuffix(ls, suf.s)
			// Guard against consuming the exponent "e" forms like
			// "2.5e-12" ending in a digit, never a suffix letter; but
			// "1e3k" is nonsense anyway. "meg" handled first so "m"
			// does not eat it.
			v, err := strconv.ParseFloat(base, 64)
			if err != nil {
				continue // e.g. "1a2" — fall through to plain parse error
			}
			return v * suf.m, nil
		}
	}
	v, err := strconv.ParseFloat(ls, 64)
	if err != nil {
		return 0, fmt.Errorf("bad numeric value %q", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}
