package layout

import (
	"math"
	"strings"
	"testing"

	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

// shapesOn returns the cell's shapes on layer l, in cell order.
func shapesOn(c *Cell, l Layer) []Shape {
	var out []Shape
	for _, s := range c.Shapes {
		if s.Layer == l {
			out = append(out, s)
		}
	}
	return out
}

func TestSRAM6TCellTracks(t *testing.T) {
	p := tech.N10()
	c := SRAM6TCell(p)
	m1 := shapesOn(c, LayerM1)
	if len(m1) != 5 {
		t.Fatalf("M1 track count %d, want 5", len(m1))
	}
	// The cell contains exactly one BL and one BLB plus the power grid.
	nets := map[string]int{}
	for _, s := range m1 {
		nets[s.Net]++
		if math.Abs(s.Rect.H()-p.M1.Width) > 1e-15 {
			t.Fatalf("track %s width %g", s.Net, s.Rect.H())
		}
		if math.Abs(s.Rect.W()-p.Cell.XPitch) > 1e-15 {
			t.Fatalf("track %s length %g", s.Net, s.Rect.W())
		}
	}
	if nets["BL"] != 1 || nets["BLB"] != 1 || nets["VSS"] != 2 || nets["VDD"] != 1 {
		t.Fatalf("net mix %v", nets)
	}
	// Tracks sit on the M1 pitch grid.
	for i, s := range m1 {
		wantC := (float64(i) + 0.5) * p.M1.Pitch
		if c := (s.Rect.Min.Y + s.Rect.Max.Y) / 2; math.Abs(c-wantC) > 1e-15 {
			t.Fatalf("track %d centre %g, want %g", i, c, wantC)
		}
	}
	if len(shapesOn(c, LayerM2)) != 1 {
		t.Fatal("missing word line")
	}
	if !strings.Contains(c.Summary(), "M1") {
		t.Fatal("summary")
	}
}

func TestArrayMergesBitLines(t *testing.T) {
	p := tech.N10()
	arr, err := Array(p, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	// After merging, each track of each column is one continuous wire:
	// 5 tracks × 2 columns on M1, plus 16 M2 word lines per column.
	m1 := shapesOn(arr, LayerM1)
	if len(m1) != 5*2 {
		t.Fatalf("merged M1 count %d, want 10", len(m1))
	}
	for _, s := range m1 {
		if math.Abs(s.Rect.W()-16*p.Cell.XPitch) > 1e-12 {
			t.Fatalf("bit line length %g, want full array %g", s.Rect.W(), 16*p.Cell.XPitch)
		}
	}
	if got := len(shapesOn(arr, LayerM2)); got != 32 {
		t.Fatalf("word-line count %d, want 32", got)
	}
	// Bounds match the floorplan.
	b := arr.Bounds()
	if math.Abs(b.W()-16*p.Cell.XPitch) > 1e-12 || math.Abs(b.H()-2*p.Cell.YPitch) > 1e-12 {
		t.Fatalf("bounds %v", b)
	}
	if _, err := Array(p, 0, 1); err == nil {
		t.Fatal("bad array size must error")
	}
}

func TestFig3ArraySizes(t *testing.T) {
	// The paper's DOE: 10 bit-line pairs × {16, 64, 256, 1024} word
	// lines must all floorplan cleanly.
	p := tech.N10()
	for _, n := range []int{16, 64, 256, 1024} {
		arr, err := Array(p, n, 10)
		if err != nil {
			t.Fatal(err)
		}
		if arr.Bounds().Empty() {
			t.Fatalf("empty array n=%d", n)
		}
	}
}

func TestWriteGDSText(t *testing.T) {
	p := tech.N10()
	c := SRAM6TCell(p)
	var b strings.Builder
	if err := c.WriteGDSText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"HEADER 600", "STRNAME sram6t_hd", "BOUNDARY", "ENDLIB", "PROPVALUE BL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("GDS text missing %q", want)
		}
	}
	if got := strings.Count(out, "BOUNDARY"); got != len(c.Shapes) {
		t.Fatalf("boundary count %d, want %d", got, len(c.Shapes))
	}
}

func TestASCIISection(t *testing.T) {
	p := tech.N10()
	var nom litho.Window
	if err := litho.Realize(&p, litho.EUV, litho.Nominal, &nom); err != nil {
		t.Fatal(err)
	}
	art := ASCIISection(nom, 0.5)
	if !strings.Contains(art, "B") || !strings.Contains(art, "#") || !strings.Contains(art, ".") {
		t.Fatalf("ascii section %q", art)
	}
	// A shifted window shows an asymmetric gap pattern.
	var wc litho.Window
	if err := litho.Realize(&p, litho.LE3, litho.Sample{OLB: 8e-9}, &wc); err != nil {
		t.Fatal(err)
	}
	if ASCIISection(wc, 0.5) == art {
		t.Fatal("distorted window renders identically to nominal")
	}
	// Degenerate scale falls back.
	if ASCIISection(nom, -1) == "" {
		t.Fatal("fallback scale broken")
	}
}
