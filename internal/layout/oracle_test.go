package layout

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mpsram/internal/geom"
	"mpsram/internal/tech"
)

// oracleArray is the two-pass floorplan Array replaced, kept verbatim in
// its arithmetic and order: tile every shape of every cell, then group
// the M1 rectangles by track and net and merge each group's x-abutting
// rectangles after sorting it.
func oracleArray(p tech.Process, rows, cols int) *Cell {
	base := SRAM6TCell(p)
	arr := &Cell{Name: fmt.Sprintf("array_%dx%d", cols, rows)}
	for r := 0; r < rows; r++ {
		dx := float64(r) * p.Cell.XPitch
		for cIdx := 0; cIdx < cols; cIdx++ {
			dy := float64(cIdx) * p.Cell.YPitch
			for _, s := range base.Shapes {
				ns := s
				ns.Rect = s.Rect.Translate(geom.Point{X: dx, Y: dy})
				arr.Shapes = append(arr.Shapes, ns)
			}
		}
	}
	oracleMergeHorizontalM1(arr)
	return arr
}

func oracleMergeHorizontalM1(c *Cell) {
	type key struct {
		lo, hi float64
		net    string
	}
	groups := map[key][]geom.Rect{}
	var rest []Shape
	for _, s := range c.Shapes {
		if s.Layer != LayerM1 {
			rest = append(rest, s)
			continue
		}
		k := key{s.Rect.Min.Y, s.Rect.Max.Y, s.Net}
		groups[k] = append(groups[k], s.Rect)
	}
	var keys []key
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].lo != keys[j].lo {
			return keys[i].lo < keys[j].lo
		}
		return keys[i].net < keys[j].net
	})
	merged := rest
	for _, k := range keys {
		rects := groups[k]
		sort.Slice(rects, func(i, j int) bool { return rects[i].Min.X < rects[j].Min.X })
		cur := rects[0]
		for _, r := range rects[1:] {
			if r.Min.X <= cur.Max.X+1e-12 {
				if r.Max.X > cur.Max.X {
					cur.Max.X = r.Max.X
				}
				continue
			}
			merged = append(merged, Shape{Layer: LayerM1, Net: k.net, Rect: cur})
			cur = r
		}
		merged = append(merged, Shape{Layer: LayerM1, Net: k.net, Rect: cur})
	}
	c.Shapes = merged
}

// TestArrayMatchesOracle: the one-pass Array produces the oracle's
// shapes exactly (every coordinate bit, in order), and so the same GDS
// text and Summary, for every shipped process at rows {1, 2, 3, 16, 64,
// 256, 1024} × cols {1, 2, 10}.
func TestArrayMatchesOracle(t *testing.T) {
	for _, p := range tech.Default().Processes() {
		for _, rows := range []int{1, 2, 3, 16, 64, 256, 1024} {
			for _, cols := range []int{1, 2, 10} {
				got, err := Array(p, rows, cols)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleArray(p, rows, cols)
				if !reflect.DeepEqual(got.Shapes, want.Shapes) {
					t.Fatalf("%s %dx%d: shapes differ from the oracle", p.Name, rows, cols)
				}
				var g, w strings.Builder
				if err := got.WriteGDSText(&g); err != nil {
					t.Fatal(err)
				}
				if err := want.WriteGDSText(&w); err != nil {
					t.Fatal(err)
				}
				if g.String() != w.String() {
					t.Fatalf("%s %dx%d: GDS text differs from the oracle", p.Name, rows, cols)
				}
				if got.Summary() != want.Summary() {
					t.Fatalf("%s %dx%d: summary %q, oracle %q", p.Name, rows, cols, got.Summary(), want.Summary())
				}
			}
		}
	}
}

// TestArraySizesShapesOnce: Array fills one slice allocated at its final
// length.
func TestArraySizesShapesOnce(t *testing.T) {
	arr, err := Array(tech.N10(), 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Shapes) != cap(arr.Shapes) {
		t.Fatalf("%d shapes in a slice of capacity %d", len(arr.Shapes), cap(arr.Shapes))
	}
}
