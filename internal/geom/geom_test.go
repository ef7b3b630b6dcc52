package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := CenterWidth(10, 4)
	if iv.Lo != 8 || iv.Hi != 12 {
		t.Fatalf("CenterWidth(10,4) = %v", iv)
	}
	if iv.Width() != 4 {
		t.Fatalf("width wrong: %v", iv)
	}
}

func TestIntervalGap(t *testing.T) {
	a := Interval{0, 2}
	b := Interval{5, 7}
	if g := a.Gap(b); g != 3 {
		t.Fatalf("gap = %g, want 3", g)
	}
	if g := b.Gap(a); g != 3 {
		t.Fatalf("gap symmetric = %g, want 3", g)
	}
	if g := a.Gap(Interval{1, 3}); g != 0 {
		t.Fatalf("overlapping gap = %g, want 0", g)
	}
	if g := a.Gap(Interval{2, 3}); g != 0 {
		t.Fatalf("touching gap = %g, want 0", g)
	}
}

func TestGapSymmetryProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := Interval{math.Min(a, b), math.Max(a, b)}
		q := Interval{math.Min(c, d), math.Max(c, d)}
		return p.Gap(q) == q.Gap(p) && p.Gap(q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(3, 4, 1, 2) // unordered corners
	if r.Min.X != 1 || r.Min.Y != 2 || r.Max.X != 3 || r.Max.Y != 4 {
		t.Fatalf("NewRect normalize: %v", r)
	}
	if r.W() != 2 || r.H() != 2 {
		t.Fatalf("dims: %v", r)
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 6, 6)
	u := a.Union(b)
	if u.Min.X != 0 || u.Max.X != 6 {
		t.Fatalf("union: %v", u)
	}
}

func TestRectUnionContainsBothProperty(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 float64) bool {
		vals := []float64{x0, y0, x1, y1, x2, y2, x3, y3}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return true
			}
		}
		a := NewRect(x0, y0, x1, y1)
		b := NewRect(x2, y2, x3, y3)
		u := a.Union(b)
		contains := func(p Point) bool {
			return p.X >= u.Min.X && p.X <= u.Max.X && p.Y >= u.Min.Y && p.Y <= u.Max.Y
		}
		return contains(a.Min) && contains(a.Max) && contains(b.Min) && contains(b.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2}.Add(Point{3, 4})
	if p.X != 4 || p.Y != 6 {
		t.Fatalf("Add: %v", p)
	}
}

func TestTrapezoid(t *testing.T) {
	tz := Trapezoid{WTop: 26e-9, WBot: 22e-9, T: 48e-9}
	wantArea := (26e-9 + 22e-9) / 2 * 48e-9
	if math.Abs(tz.Area()-wantArea) > 1e-30 {
		t.Fatalf("area = %g want %g", tz.Area(), wantArea)
	}
}
