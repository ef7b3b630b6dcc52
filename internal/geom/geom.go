// Package geom provides the geometric primitives used by the layout
// generator, the patterning engines and the field solver: 1-D intervals
// (metal tracks seen in cross-section), 2-D points, rectangles and simple
// transforms.
//
// Coordinates are float64 metres. The cross-section convention used by the
// patterning and extraction code is: x runs across the parallel-line array
// (the direction in which overlay shifts move whole masks), y runs along
// the wires, z is the stack direction.
package geom

import (
	"fmt"
	"math"
)

// Interval is a 1-D closed interval [Lo, Hi], used for wire cross-sections
// across the line array.
type Interval struct {
	Lo, Hi float64
}

// CenterWidth builds an interval from a centre coordinate and a width.
func CenterWidth(center, width float64) Interval {
	h := width / 2
	return Interval{Lo: center - h, Hi: center + h}
}

// Width returns Hi-Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Overlaps reports whether the two intervals intersect with positive length.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Lo < o.Hi && o.Lo < iv.Hi
}

// Gap returns the clear distance between two disjoint intervals; zero if
// they touch or overlap.
func (iv Interval) Gap(o Interval) float64 {
	if iv.Overlaps(o) {
		return 0
	}
	if iv.Hi <= o.Lo {
		return o.Lo - iv.Hi
	}
	return iv.Lo - o.Hi
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%.3g,%.3g]", iv.Lo, iv.Hi)
}

// Point is a 2-D point.
type Point struct {
	X, Y float64
}

// Add returns p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Rect is an axis-aligned rectangle with Min ≤ Max corner convention.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// W returns the width (x extent).
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the height (y extent).
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Empty reports whether the rectangle has non-positive area.
func (r Rect) Empty() bool { return r.W() <= 0 || r.H() <= 0 }

// Translate shifts the rectangle by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{Min: r.Min.Add(d), Max: r.Max.Add(d)}
}

// Union returns the bounding box of both rectangles.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, o.Min.X), math.Min(r.Min.Y, o.Min.Y)},
		Max: Point{math.Max(r.Max.X, o.Max.X), math.Max(r.Max.Y, o.Max.Y)},
	}
}

// Trapezoid describes a wire cross-section after etch taper: the top width
// differs from the bottom width, height T. Used by the resistance extractor.
type Trapezoid struct {
	WTop, WBot, T float64
}

// Area returns the trapezoid cross-section area.
func (tz Trapezoid) Area() float64 { return (tz.WTop + tz.WBot) / 2 * tz.T }
