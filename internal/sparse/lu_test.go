package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// patternOf lists the stored positions of m.
func patternOf(m *Matrix) []Coord {
	var pos []Coord
	for i, row := range m.Rows {
		for _, e := range row {
			pos = append(pos, Coord{int32(i), int32(e.Col)})
		}
	}
	return pos
}

// loadValues lays m's stored values out on s's slots, fill slots zero.
func loadValues(t *testing.T, s *Symbolic, m *Matrix) []float64 {
	t.Helper()
	vals := make([]float64, s.NNZ())
	for i, row := range m.Rows {
		for _, e := range row {
			k := s.Slot(i, e.Col)
			if k < 0 {
				t.Fatalf("stored entry (%d, %d) missing from the symbolic pattern", i, e.Col)
			}
			vals[k] = e.Val
		}
	}
	return vals
}

// luCase draws a random diagonally dominant system on a fixed pattern —
// a ladder plus random long-range couplings — and can redraw the values
// on the same pattern. Integer-valued draws make exact cancellation
// (stored zeros, zero multipliers, fill that cancels to 0) common.
type luCase struct {
	n        int
	pos      []Coord // off-diagonal positions, each stored exactly once
	integer  bool
	zeroFrac float64 // share of off-diagonals assembled to an exact 0
	badPivot bool    // assemble one diagonal to an exact 0
}

func newLUCase(rng *rand.Rand, n, extra int, integer bool, zeroFrac float64, badPivot bool) luCase {
	c := luCase{n: n, integer: integer, zeroFrac: zeroFrac, badPivot: badPivot}
	seen := make(map[Coord]bool)
	add := func(i, j int) {
		p := Coord{int32(i), int32(j)}
		if i != j && j >= 0 && j < n && !seen[p] {
			seen[p] = true
			c.pos = append(c.pos, p)
		}
	}
	for i := 0; i < n; i++ {
		add(i, i-1)
		add(i, i+1)
		for k := 0; k < extra; k++ {
			add(i, rng.Intn(n))
		}
	}
	return c
}

// draw assembles one value set and right-hand side on the case's pattern.
func (c luCase) draw(rng *rand.Rand) (*Matrix, []float64) {
	val := func() float64 {
		if c.integer {
			return float64(rng.Intn(5) - 2)
		}
		return rng.Float64()*2 - 1
	}
	nonzero := func() float64 {
		for {
			if v := val(); v != 0 {
				return v
			}
		}
	}
	m := NewMatrix(c.n)
	off := make([]float64, c.n)
	for _, p := range c.pos {
		v := nonzero()
		m.Add(int(p.Row), int(p.Col), v)
		if rng.Float64() < c.zeroFrac {
			m.Add(int(p.Row), int(p.Col), -v) // stored, exactly 0
			continue
		}
		off[p.Row] += math.Abs(v)
	}
	bad := -1
	if c.badPivot {
		bad = rng.Intn(c.n)
	}
	for i := 0; i < c.n; i++ {
		d := off[i] + 1
		if !c.integer {
			d += rng.Float64()
		}
		m.Add(i, i, d)
		if i == bad {
			m.Add(i, i, -d)
		}
	}
	b := make([]float64, c.n)
	for i := range b {
		switch rng.Intn(8) {
		case 0:
			b[i] = 0
		case 1:
			b[i] = math.Copysign(0, -1)
		default:
			b[i] = val()
		}
	}
	return m, b
}

// requireSameSolve solves m·x = b through Solver.Solve and through the
// symbolic path and requires identical errors and bit-identical
// solutions.
func requireSameSolve(t *testing.T, label string, s *Symbolic, m *Matrix, b []float64) {
	t.Helper()
	vals := loadValues(t, s, m)
	bSym := append([]float64(nil), b...)
	x := make([]float64, s.N())
	gotErr := s.Solve(vals, bSym, x)

	var ref Solver
	want, wantErr := ref.Solve(m.Clone(), append([]float64(nil), b...))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: Solver err=%v, symbolic err=%v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: errors differ: Solver %q, symbolic %q", label, wantErr, gotErr)
		}
		return
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(x[i]) {
			t.Fatalf("%s: x[%d] Solver %v (%#x) vs symbolic %v (%#x)", label, i,
				want[i], math.Float64bits(want[i]), x[i], math.Float64bits(x[i]))
		}
	}
}

// FuzzCompiledLU gates the symbolic-once LU against Solver.Solve: on
// random diagonally dominant systems — with stored zeros, zero
// multipliers, fill that may cancel and occasional zero pivots — the
// numeric refactorization must return the same error and a bit-identical
// solution. One Symbolic serves two value sets on its pattern, as it
// serves every Newton iteration of a transient.
func FuzzCompiledLU(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(1), uint8(0))
	f.Add(int64(2), uint8(40), uint8(2), uint8(1))
	f.Add(int64(3), uint8(25), uint8(3), uint8(2))
	f.Add(int64(4), uint8(60), uint8(1), uint8(3))
	f.Add(int64(5), uint8(3), uint8(0), uint8(5))
	f.Add(int64(2015), uint8(120), uint8(2), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, size, extra, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%150
		c := newLUCase(rng, n, int(extra)%4, mode&1 != 0, float64(mode>>1&3)/8, mode&8 != 0)
		m1, b1 := c.draw(rng)
		s, err := Analyze(n, patternOf(m1))
		if err != nil {
			t.Fatal(err)
		}
		requireSameSolve(t, "first value set", s, m1, b1)
		m2, b2 := c.draw(rng)
		requireSameSolve(t, "second value set", s, m2, b2)
	})
}

func TestAnalyzeFillAndSlots(t *testing.T) {
	// Arrow pattern pointing up-left: row 0 couples to every column and
	// every row couples to column 0, so eliminating column 0 fills the
	// whole trailing block.
	n := 5
	var pos []Coord
	for j := 1; j < n; j++ {
		pos = append(pos, Coord{0, int32(j)}, Coord{int32(j), 0})
	}
	s, err := Analyze(n, pos)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != n || s.NNZ() != n*n {
		t.Fatalf("N=%d NNZ=%d, want %d and %d", s.N(), s.NNZ(), n, n*n)
	}
	for i := 0; i < n; i++ {
		if s.Diag(i) != s.Slot(i, i) || s.Diag(i) < 0 {
			t.Fatalf("Diag(%d) = %d, Slot = %d", i, s.Diag(i), s.Slot(i, i))
		}
	}
	// The arrow pointing down-right fills nothing.
	for k := range pos {
		pos[k].Row, pos[k].Col = int32(n-1)-pos[k].Row, int32(n-1)-pos[k].Col
	}
	s, err = Analyze(n, pos)
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 3*n-2 {
		t.Fatalf("reversed arrow: NNZ=%d, want %d (no fill)", s.NNZ(), 3*n-2)
	}
	if s.Slot(1, 2) != -1 {
		t.Fatalf("Slot of an absent position = %d, want -1", s.Slot(1, 2))
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	if _, err := Analyze(0, nil); err == nil {
		t.Fatal("n = 0 accepted")
	}
	if _, err := Analyze(2, []Coord{{0, 2}}); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	s, err := Analyze(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(make([]float64, 2), make([]float64, 1), make([]float64, 2)); err == nil {
		t.Fatal("short rhs accepted")
	}
	if err := s.Solve(make([]float64, 3), make([]float64, 2), make([]float64, 2)); err == nil {
		t.Fatal("value array of the wrong length accepted")
	}
}

func TestSymbolicSolveAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := newLUCase(rng, 200, 2, false, 0, false)
	m, b := c.draw(rng)
	s, err := Analyze(c.n, patternOf(m))
	if err != nil {
		t.Fatal(err)
	}
	base := loadValues(t, s, m)
	vals := make([]float64, len(base))
	rhs := make([]float64, len(b))
	x := make([]float64, len(b))
	allocs := testing.AllocsPerRun(20, func() {
		copy(vals, base)
		copy(rhs, b)
		if err := s.Solve(vals, rhs, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Symbolic.Solve allocates %v times per solve", allocs)
	}
}

// BenchmarkSymbolicVsSolver times one refactor-and-solve of a 200-unknown
// ladder: the symbolic path (copy of the assembled values plus
// Symbolic.Solve) against CopyFrom plus Solver.Solve.
func BenchmarkSymbolicVsSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	c := newLUCase(rng, 200, 0, false, 0, false)
	m, rhs := c.draw(rng)
	s, err := Analyze(c.n, patternOf(m))
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]float64, s.NNZ())
	for i, row := range m.Rows {
		for _, e := range row {
			vals[s.Slot(i, e.Col)] = e.Val
		}
	}
	work := make([]float64, len(vals))
	bw := make([]float64, len(rhs))
	x := make([]float64, len(rhs))
	b.Run("symbolic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(work, vals)
			copy(bw, rhs)
			if err := s.Solve(work, bw, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solver", func(b *testing.B) {
		b.ReportAllocs()
		var (
			wm     Matrix
			solver Solver
		)
		for i := 0; i < b.N; i++ {
			wm.CopyFrom(m)
			copy(bw, rhs)
			if _, err := solver.Solve(&wm, bw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
