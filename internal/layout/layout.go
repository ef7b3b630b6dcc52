// Package layout generates the physical-design artefacts of the study: a
// parameterized 6T SRAM cell abstraction with the paper's metal style
// (unidirectional horizontal metal1 bit lines and power rails at minimum
// spacing, unidirectional vertical metal2 word lines — Fig. 1b), array
// floorplans (Fig. 3), realized-window cross-sections (Fig. 2), and a
// GDS-flavoured text export.
//
// This is the stand-in for the proprietary imec cell GDSII: the
// variability study only consumes M1 track geometry, which this generator
// produces from the technology description.
package layout

import (
	"fmt"
	"io"
	"strings"

	"mpsram/internal/geom"
	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

// Layer identifies a drawing layer.
type Layer int

const (
	LayerM1 Layer = iota
	LayerM2
	LayerVia1
	LayerDiff
	LayerPoly
)

// Shape is one rectangle on a layer, tagged with its net.
type Shape struct {
	Layer Layer
	Net   string
	Rect  geom.Rect
}

// Cell is a named collection of shapes.
type Cell struct {
	Name   string
	Shapes []Shape
}

// Bounds returns the bounding box of all shapes.
func (c *Cell) Bounds() geom.Rect {
	var b geom.Rect
	for _, s := range c.Shapes {
		b = b.Union(s.Rect)
	}
	return b
}

// m1TrackNets is the vertical M1 track order within one cell, bottom to
// top: the bit-line pair embedded in the power grid (paper Fig. 1b).
var m1TrackNets = []string{"VSS", "BL", "VDD", "BLB", "VSS"}

// SRAM6TCell generates the M1/M2 abstraction of the high-density 6T cell:
// horizontal M1 tracks (bit lines + rails) across the cell x-pitch and one
// vertical M2 word-line strap.
func SRAM6TCell(p tech.Process) *Cell {
	m := p.M1
	c := &Cell{Name: "sram6t_hd"}
	for i, net := range m1TrackNets {
		yc := (float64(i) + 0.5) * m.Pitch
		c.Shapes = append(c.Shapes, Shape{
			Layer: LayerM1,
			Net:   net,
			Rect:  geom.NewRect(0, yc-m.Width/2, p.Cell.XPitch, yc+m.Width/2),
		})
	}
	// Word line: vertical M2 through the cell centre.
	wlW := m.Width
	xc := p.Cell.XPitch / 2
	c.Shapes = append(c.Shapes, Shape{
		Layer: LayerM2,
		Net:   "WL",
		Rect:  geom.NewRect(xc-wlW/2, 0, xc+wlW/2, p.Cell.YPitch),
	})
	return c
}

// Array tiles the 6T cell into a rows×cols floorplan (rows = word lines =
// cells along a bit line; cols = bit-line pairs). Shapes are flattened;
// abutting M1 tracks of horizontally adjacent cells merge into continuous
// bit lines. The shapes come out in one slice, sized once: first every
// cell's M2 word-line strap in tiling order, then each M1 track, bottom
// to top, merged across the rows as they are tiled.
func Array(p tech.Process, rows, cols int) (*Cell, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("layout: bad array %dx%d", rows, cols)
	}
	base := SRAM6TCell(p)
	var m1, other []Shape
	for _, s := range base.Shapes {
		if s.Layer == LayerM1 {
			m1 = append(m1, s)
		} else {
			other = append(other, s)
		}
	}
	arr := &Cell{
		Name:   fmt.Sprintf("array_%dx%d", cols, rows),
		Shapes: make([]Shape, 0, rows*cols*len(other)+cols*len(m1)),
	}
	for r := 0; r < rows; r++ {
		dx := float64(r) * p.Cell.XPitch
		for c := 0; c < cols; c++ {
			dy := float64(c) * p.Cell.YPitch
			for _, s := range other {
				s.Rect = s.Rect.Translate(geom.Point{X: dx, Y: dy})
				arr.Shapes = append(arr.Shapes, s)
			}
		}
	}
	for c := 0; c < cols; c++ {
		dy := float64(c) * p.Cell.YPitch
		for _, s := range m1 {
			cur := s.Rect.Translate(geom.Point{Y: dy})
			for r := 1; r < rows; r++ {
				next := s.Rect.Translate(geom.Point{X: float64(r) * p.Cell.XPitch, Y: dy})
				if next.Min.X <= cur.Max.X+1e-12 {
					if next.Max.X > cur.Max.X {
						cur.Max.X = next.Max.X
					}
					continue
				}
				arr.Shapes = append(arr.Shapes, Shape{Layer: LayerM1, Net: s.Net, Rect: cur})
				cur = next
			}
			arr.Shapes = append(arr.Shapes, Shape{Layer: LayerM1, Net: s.Net, Rect: cur})
		}
	}
	return arr, nil
}

// WriteGDSText emits the cell in a GDSII-flavoured text stream (one BOUNDARY
// record per shape, nm units).
func (c *Cell) WriteGDSText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "HEADER 600\nBGNLIB\nLIBNAME %s\nUNITS 1e-9 1e-9\nBGNSTR\nSTRNAME %s\n",
		c.Name, c.Name); err != nil {
		return err
	}
	for _, s := range c.Shapes {
		r := s.Rect
		if _, err := fmt.Fprintf(w,
			"BOUNDARY\nLAYER %d\nDATATYPE 0\nPROPATTR 1\nPROPVALUE %s\nXY %0.1f %0.1f %0.1f %0.1f %0.1f %0.1f %0.1f %0.1f %0.1f %0.1f\nENDEL\n",
			int(s.Layer), s.Net,
			r.Min.X*1e9, r.Min.Y*1e9,
			r.Max.X*1e9, r.Min.Y*1e9,
			r.Max.X*1e9, r.Max.Y*1e9,
			r.Min.X*1e9, r.Max.Y*1e9,
			r.Min.X*1e9, r.Min.Y*1e9); err != nil {
			return err
		}
	}
	_, err := fmt.Fprint(w, "ENDSTR\nENDLIB\n")
	return err
}

// Summary describes the cell for the Fig. 3 style overview.
func (c *Cell) Summary() string {
	b := c.Bounds()
	var m1, m2 int
	for _, s := range c.Shapes {
		switch s.Layer {
		case LayerM1:
			m1++
		case LayerM2:
			m2++
		}
	}
	return fmt.Sprintf("%s: %.2f x %.2f um, %d shapes (%d M1, %d M2)",
		c.Name, b.W()*1e6, b.H()*1e6, len(c.Shapes), m1, m2)
}

// ASCIISection draws the M1 cross-section of a window cell as a one-line
// track diagram, used by the CLI's fig2 rendering.
func ASCIISection(win litho.Window, colsPerNM float64) string {
	if colsPerNM <= 0 {
		colsPerNM = 1
	}
	lo := win.Wires[0].Span.Lo
	var b strings.Builder
	cursor := lo
	for i, w := range win.Wires {
		gap := int((w.Span.Lo - cursor) * 1e9 * colsPerNM)
		if gap > 0 {
			b.WriteString(strings.Repeat(".", gap))
		}
		width := int(w.Width() * 1e9 * colsPerNM)
		if width < 1 {
			width = 1
		}
		ch := "#"
		if i == win.Victim {
			ch = "B"
		}
		b.WriteString(strings.Repeat(ch, width))
		cursor = w.Span.Hi
	}
	return b.String()
}
