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

// luCase draws a random diagonally dominant system on a fixed pattern
// and can redraw the values on the same pattern. Integer-valued draws
// make exact cancellation (stored zeros, zero multipliers, fill that
// cancels to 0) common.
type luCase struct {
	n        int
	pos      []Coord // off-diagonal positions, each stored exactly once
	integer  bool
	zeroFrac float64 // share of off-diagonals assembled to an exact 0
	badPivot bool    // assemble one diagonal to an exact 0
}

// newLUCase lays out an n-unknown pattern: a ladder plus extra random
// long-range couplings per row, or, with column set, the shape of the
// engine's bit-line column (n ≥ 8) in its node order — the supply, the
// bl and blb ladders interleaved, the ground rail, the precharge and word
// lines, and the cell's storage nodes q and qb. The cell's transistors
// tie q and qb to the far end of every chain, so elimination fills both
// rows across the ladders and the rail: a dense border. At n = 200 it is
// the pattern of the n = 64 column, 1,257 slots with fill.
func newLUCase(rng *rand.Rand, n, extra int, column bool) luCase {
	c := luCase{n: n}
	seen := make(map[Coord]bool)
	add := func(i, j int) {
		p := Coord{int32(i), int32(j)}
		if i != j && j >= 0 && j < n && !seen[p] {
			seen[p] = true
			c.pos = append(c.pos, p)
		}
	}
	if !column {
		for i := 0; i < n; i++ {
			add(i, i-1)
			add(i, i+1)
			for k := 0; k < extra; k++ {
				add(i, rng.Intn(n))
			}
		}
		return c
	}
	segs := (n - 5) / 3
	const vdd = 0
	bl := func(j int) int { return 1 + 2*j }
	blb := func(j int) int { return 2 + 2*j }
	vss := func(j int) int { return 1 + 2*segs + j }
	pre, wl, q, qb := n-4, n-3, n-2, n-1
	two := func(a, b int) { add(a, b); add(b, a) }
	mos := func(d, g, s int) { add(d, g); add(d, s); add(s, g); add(s, d) }
	for j := 0; j+1 < segs; j++ {
		two(bl(j), bl(j+1))
		two(blb(j), blb(j+1))
	}
	for j := vss(0); j+1 < pre; j++ {
		two(j, j+1)
	}
	mos(bl(segs-1), pre, vdd)
	mos(blb(segs-1), pre, vdd)
	mos(bl(0), wl, q)
	mos(blb(0), wl, qb)
	mos(q, qb, vss(0))
	mos(qb, q, vss(0))
	mos(q, qb, vdd)
	mos(qb, q, vdd)
	two(qb, vdd)
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
// serves every Newton iteration of a transient. Mode bit 16 draws the
// bit-line column's shape (n = 8 … 200), whose independent chains the
// schedule interleaves, instead of a ladder with random couplings.
func FuzzCompiledLU(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(1), uint8(0))
	f.Add(int64(2), uint8(40), uint8(2), uint8(1))
	f.Add(int64(3), uint8(25), uint8(3), uint8(2))
	f.Add(int64(4), uint8(60), uint8(1), uint8(3))
	f.Add(int64(5), uint8(3), uint8(0), uint8(5))
	f.Add(int64(2015), uint8(120), uint8(2), uint8(6))
	f.Add(int64(7), uint8(192), uint8(0), uint8(16))
	f.Add(int64(8), uint8(57), uint8(0), uint8(29))
	f.Fuzz(func(t *testing.T, seed int64, size, extra, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%150
		column := mode&16 != 0
		if column {
			n = 8 + int(size)%193
		}
		c := newLUCase(rng, n, int(extra)%4, column)
		c.integer, c.zeroFrac, c.badPivot = mode&1 != 0, float64(mode>>1&3)/8, mode&8 != 0
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

// TestSolveSchedule checks the schedule Analyze lays out against the
// order Solve's arithmetic needs, on random patterns and on the bit-line
// column's: every below-diagonal slot has exactly one record, with the
// pivot slot, source range and targets of its elimination; each row's
// records run in ascending column order, each after every record of its
// pivot row; and back-substitution reaches each row after every row in
// its upper part.
func TestSolveSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []luCase{newLUCase(rng, 200, 0, true), newLUCase(rng, 23, 0, true)}
	for _, n := range []int{1, 2, 7, 40, 120} {
		for extra := 0; extra < 4; extra++ {
			cases = append(cases, newLUCase(rng, n, extra, false))
		}
	}
	for ci, c := range cases {
		s, err := Analyze(c.n, c.pos)
		if err != nil {
			t.Fatal(err)
		}
		if ci == 0 && s.NNZ() != 1257 {
			t.Fatalf("200-unknown column: NNZ = %d, want the n = 64 column's 1257", s.NNZ())
		}
		seen := make([]bool, s.NNZ())
		last := make([]int32, c.n) // column of row i's latest record, −1 before its first
		left := make([]int32, c.n) // records of row i not yet run
		for i := range left {
			last[i] = -1
			left[i] = s.diag[i] - s.rowPtr[i]
		}
		for r, e := range s.elim {
			i, k := e.row, e.col
			if e.slot < s.rowPtr[i] || e.slot >= s.diag[i] || s.cols[e.slot] != k ||
				e.piv != s.diag[k] || e.end != s.rowPtr[k+1] {
				t.Fatalf("case %d: record %d %+v is not the elimination of slot (%d, %d)", ci, r, e, i, k)
			}
			for j, col := range s.cols[e.piv+1 : e.end] {
				if got, want := s.upd[int(e.upd)+j], int32(s.Slot(int(i), int(col))); got != want {
					t.Fatalf("case %d: record %d targets slot %d for column %d, want %d", ci, r, got, col, want)
				}
			}
			if seen[e.slot] {
				t.Fatalf("case %d: slot (%d, %d) has two records", ci, i, k)
			}
			seen[e.slot] = true
			if k <= last[i] {
				t.Fatalf("case %d: row %d eliminates column %d after column %d", ci, i, k, last[i])
			}
			if left[k] != 0 {
				t.Fatalf("case %d: record (%d, %d) runs before %d records of its pivot row", ci, i, k, left[k])
			}
			last[i] = k
			left[i]--
		}
		for i := 0; i < c.n; i++ {
			for tt := s.rowPtr[i]; tt < s.diag[i]; tt++ {
				if !seen[tt] {
					t.Fatalf("case %d: slot (%d, %d) has no record", ci, i, s.cols[tt])
				}
			}
		}
		solved := make([]bool, c.n)
		for _, br := range s.back {
			i := br.row
			if br.diag != s.diag[i] || br.end != s.rowPtr[i+1] || solved[i] {
				t.Fatalf("case %d: back-substitution row %+v is wrong or repeated", ci, br)
			}
			for _, col := range s.cols[br.diag+1 : br.end] {
				if !solved[col] {
					t.Fatalf("case %d: row %d is solved before row %d of its upper part", ci, i, col)
				}
			}
			solved[i] = true
		}
		if len(s.back) != c.n {
			t.Fatalf("case %d: back-substitution has %d rows, want %d", ci, len(s.back), c.n)
		}
	}
}

// TestSolveReportsLowestBadPivot builds a matrix whose elimination zeroes
// the pivot of row 3, while rows 7 and 9, independent of it, have pivots
// below threshold. Back-substitution reaches row 7 before row 3 and row 9
// after it; Solve must still report row 3, as Solver.Solve does, and row
// 7 once row 3 is sound.
func TestSolveReportsLowestBadPivot(t *testing.T) {
	build := func(l32 float64) *Matrix {
		m := NewMatrix(14)
		for i := 0; i < 14; i++ {
			d := 1.0
			if i == 7 || i == 9 {
				d = 1e-20
			}
			m.Add(i, i, d)
		}
		m.Add(2, 3, 1)
		m.Add(3, 2, l32) // l32 = 1 cancels row 3's pivot to an exact 0
		m.Add(6, 3, 0.5) // row 6 then divides by that zero
		for _, i := range []int{3, 4, 5, 7, 9, 10, 11, 12} {
			m.Add(i, i+1, 0.5)
		}
		return m
	}
	for _, tc := range []struct {
		l32  float64
		want string
	}{
		{1, "sparse: zero pivot at row 3"},
		{0.5, "sparse: pivot 1e-20 at row 7 below threshold (row max 0.5)"},
	} {
		m := build(tc.l32)
		s, err := Analyze(m.N, patternOf(m))
		if err != nil {
			t.Fatal(err)
		}
		order := make(map[int32]int)
		for r, br := range s.back {
			order[br.row] = r
		}
		if !(order[7] < order[3] && order[3] < order[9]) {
			t.Fatalf("back-substitution reaches rows 7, 3, 9 at %d, %d, %d; the test needs 7 before 3 before 9",
				order[7], order[3], order[9])
		}
		b := make([]float64, m.N)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, m.N)
		if err := s.Solve(loadValues(t, s, m), append([]float64(nil), b...), x); err == nil || err.Error() != tc.want {
			t.Fatalf("l32 = %g: Solve error %v, want %q", tc.l32, err, tc.want)
		}
		requireSameSolve(t, tc.want, s, m, b)
	}
}

func TestSymbolicSolveAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := newLUCase(rng, 200, 2, false)
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

// BenchmarkSymbolicVsSolver times one refactor-and-solve of two
// 200-unknown systems, a ladder and the n = 64 bit-line column's pattern
// (1,257 slots with fill): the symbolic path (copy of the assembled
// values plus Symbolic.Solve) against CopyFrom plus Solver.Solve.
func BenchmarkSymbolicVsSolver(b *testing.B) {
	for _, shape := range []struct {
		name   string
		column bool
	}{{"ladder", false}, {"column", true}} {
		rng := rand.New(rand.NewSource(5))
		c := newLUCase(rng, 200, 0, shape.column)
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
		b.Run(shape.name+"/symbolic", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, vals)
				copy(bw, rhs)
				if err := s.Solve(work, bw, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/solver", func(b *testing.B) {
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
}
