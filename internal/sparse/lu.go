package sparse

import (
	"fmt"
	"math"
	"slices"
)

// Coord is one structural nonzero position of a pattern.
type Coord struct {
	Row, Col int32
}

// Symbolic is the structural half of a sparse LU factorization: the
// pattern of an n×n matrix with its fill-in under the natural (diagonal)
// pivot order, laid out row-major as value slots, and a schedule of the
// numeric work on those slots. It is computed once per pattern by
// Analyze; each numeric factorization (Solve) then works on a flat
// []float64 of NNZ values and does no searching, sorting or allocation.
//
// The schedule has one record per below-diagonal slot, in dependency
// level order (Anderson & Saad, 1989): a record's level is one past the
// deeper of the record before it in its row and the last record of its
// pivot row. So each row still eliminates its columns in ascending order,
// after every record of each pivot row, while records of independent
// chains (the two bit-line ladders, the ground rail, the dense cell rows)
// sit side by side for the CPU to overlap. Back-substitution runs in
// level order too: each row after every row in its upper part.
//
// A Symbolic is immutable after Analyze and safe for concurrent use; the
// value arrays and right-hand sides belong to the caller.
type Symbolic struct {
	n      int
	rowPtr []int32    // row i's slots are rowPtr[i]:rowPtr[i+1], columns ascending
	cols   []int32    // column of each slot
	diag   []int32    // slot of (i, i)
	orig   []bool     // slot is in the analyzed pattern (false: fill-in)
	elim   []elimStep // one per below-diagonal slot, in level order
	upd    []int32    // the records' update targets
	back   []backRow  // every row, in level order
}

// elimStep eliminates below-diagonal slot (i, k): it subtracts a
// multiple of row k's strictly-upper slots piv+1 … end−1 from the slots
// upd[upd:upd+end−piv−1] of row i, one target per source in column
// order, and the same multiple of b[k] from b[i].
type elimStep struct {
	slot, piv, end int32 // slots (i, k) and (k, k), end of row k
	row, col       int32 // i and k
	upd            int32 // offset of the first target in Symbolic.upd
}

// backRow is one row of the back-substitution: its diagonal slot and the
// end of its upper part.
type backRow struct {
	row, diag, end int32
}

// Analyze computes the symbolic LU of the n×n pattern made of the given
// positions (duplicates allowed) and the full diagonal, which is always
// part of the pattern.
func Analyze(n int, pattern []Coord) (*Symbolic, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sparse: analyze: n = %d", n)
	}
	pos := make([]Coord, 0, len(pattern)+n)
	for _, c := range pattern {
		if c.Row < 0 || int(c.Row) >= n || c.Col < 0 || int(c.Col) >= n {
			return nil, fmt.Errorf("sparse: analyze: position (%d, %d) outside %d×%d", c.Row, c.Col, n, n)
		}
		pos = append(pos, c)
	}
	for i := 0; i < n; i++ {
		pos = append(pos, Coord{int32(i), int32(i)})
	}
	slices.SortFunc(pos, func(a, b Coord) int {
		if a.Row != b.Row {
			return int(a.Row - b.Row)
		}
		return int(a.Col - b.Col)
	})
	pos = slices.Compact(pos)

	// Row by row, the pattern of row i is its own positions plus, for
	// every below-diagonal column k in ascending order (fill included),
	// the strictly-upper columns of the finished row k.
	s := &Symbolic{
		n:      n,
		rowPtr: make([]int32, n+1),
		diag:   make([]int32, n),
	}
	mark := make([]int32, n) // mark[c] == i+1: column c is in row i
	var row []int32
	p := 0
	for i := 0; i < n; i++ {
		row = row[:0]
		lo := i
		for ; p < len(pos) && int(pos[p].Row) == i; p++ {
			c := pos[p].Col
			mark[c] = int32(i + 1)
			row = append(row, c)
			lo = min(lo, int(c))
		}
		for k := lo; k < i; k++ {
			if mark[k] != int32(i+1) {
				continue
			}
			for _, c := range s.cols[s.diag[k]+1 : s.rowPtr[k+1]] {
				if mark[c] != int32(i+1) {
					mark[c] = int32(i + 1)
					row = append(row, c)
				}
			}
		}
		slices.Sort(row)
		for _, c := range row {
			if int(c) == i {
				s.diag[i] = int32(len(s.cols))
			}
			s.cols = append(s.cols, c)
		}
		s.rowPtr[i+1] = int32(len(s.cols))
	}

	// Level the eliminations in row-major order: done[i] is the level of
	// row i's last record, −1 for a row with none. Count their targets.
	var nrec, ntgt int32
	for i := 0; i < n; i++ {
		nrec += s.diag[i] - s.rowPtr[i]
	}
	done := make([]int32, n)
	level := make([]int32, 0, nrec)
	for i := 0; i < n; i++ {
		prev := int32(-1)
		for _, k := range s.cols[s.rowPtr[i]:s.diag[i]] {
			prev = max(prev, done[k]) + 1
			level = append(level, prev)
			ntgt += s.rowPtr[k+1] - s.diag[k] - 1
		}
		done[i] = prev
	}

	// Flag the analyzed positions (both lists are sorted row-major), and
	// lay each below-diagonal slot's record out at its place in level
	// order, its update targets resolved through a dense column→slot map
	// of its row.
	nnz := len(s.cols)
	s.orig = make([]bool, nnz)
	s.elim = make([]elimStep, len(level))
	s.upd = make([]int32, 0, ntgt)
	at := byLevel(level)
	slot := make([]int32, n)
	p, r := 0, 0
	for i := 0; i < n; i++ {
		for t := s.rowPtr[i]; t < s.rowPtr[i+1]; t++ {
			c := s.cols[t]
			slot[c] = t
			if p < len(pos) && int(pos[p].Row) == i && pos[p].Col == c {
				s.orig[t] = true
				p++
			}
		}
		for t := s.rowPtr[i]; t < s.diag[i]; t++ {
			k := s.cols[t]
			e := elimStep{slot: t, piv: s.diag[k], end: s.rowPtr[k+1], row: int32(i), col: k, upd: int32(len(s.upd))}
			for _, c := range s.cols[e.piv+1 : e.end] {
				s.upd = append(s.upd, slot[c])
			}
			s.elim[at[r]] = e
			r++
		}
	}

	// Level the back-substitution the same way: row i needs the solution
	// of every column in its upper part.
	depth := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		for _, c := range s.cols[s.diag[i]+1 : s.rowPtr[i+1]] {
			depth[i] = max(depth[i], depth[c]+1)
		}
	}
	s.back = make([]backRow, n)
	for i, j := range byLevel(depth) {
		s.back[j] = backRow{int32(i), s.diag[i], s.rowPtr[i+1]}
	}
	return s, nil
}

// byLevel returns where items of the given levels (≥ 0) go when laid out
// by level, each level's items in the order given.
func byLevel(level []int32) []int32 {
	var top int32
	for _, l := range level {
		top = max(top, l)
	}
	start := make([]int32, top+2) // summed: the items below each level
	for _, l := range level {
		start[l+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	at := make([]int32, len(level))
	for j, l := range level {
		at[j] = start[l]
		start[l]++
	}
	return at
}

// N returns the matrix dimension.
func (s *Symbolic) N() int { return s.n }

// NNZ returns the number of value slots: the analyzed pattern plus fill.
func (s *Symbolic) NNZ() int { return len(s.cols) }

// Slot returns the value slot of position (i, j), or −1 if it is not part
// of the pattern.
func (s *Symbolic) Slot(i, j int) int {
	row := s.cols[s.rowPtr[i]:s.rowPtr[i+1]]
	if k, ok := slices.BinarySearch(row, int32(j)); ok {
		return int(s.rowPtr[i]) + k
	}
	return -1
}

// Diag returns the value slot of the diagonal entry (i, i).
func (s *Symbolic) Diag(i int) int { return int(s.diag[i]) }

// Solve factors vals in place and solves the system for right-hand side
// b, writing the solution to x; b is overwritten. vals holds the matrix
// on s's slots (NNZ values, fill slots zero) and is destroyed.
//
// The arithmetic is that of Solver.Solve on the same matrix, operation
// for operation: every entry and every b[i] receives its updates in
// ascending pivot order, zero multipliers are skipped, and each pivot is
// checked against the largest magnitude in the upper part of its row.
// Solutions are therefore bit-identical, and so are the errors.
//
// The schedule runs every record and every back-substitution row before
// it reports a bad pivot, so the rows after one compute from a zero or
// tiny divisor. The error names the lowest row that fails a check, a
// zero pivot before one below threshold, as Solver.Solve's does; x is
// unspecified when Solve returns an error.
func (s *Symbolic) Solve(vals, b, x []float64) error {
	n := s.n
	if len(b) != n {
		return fmt.Errorf("sparse: rhs length %d != n %d", len(b), n)
	}
	if len(vals) != len(s.cols) || len(x) != n {
		return fmt.Errorf("sparse: %d values and %d unknowns for a %d-slot, %d-row pattern",
			len(vals), len(x), len(s.cols), n)
	}
	// Until back-substitution reaches row i, x[i] records whether
	// elimination touched the row: Solver.Solve drops the zeros of a row
	// it rewrites but keeps the stored zeros of one it never touches, and
	// a stored zero still takes part in the sum below.
	clear(x)
	elim, upd := s.elim, s.upd
	for _, e := range elim {
		l := vals[e.slot]
		if l == 0 {
			continue
		}
		f := l / vals[e.piv]
		src := vals[e.piv+1 : e.end]
		dst := upd[e.upd : int(e.upd)+len(src)]
		for j, v := range src {
			vals[dst[j]] -= float64(f * v)
		}
		b[e.row] -= float64(f * b[e.col])
		x[e.row] = 1
	}
	// A row's values are final once elimination is done, so its pivot
	// check can wait for back-substitution, which reads the row anyway.
	bad := n // the lowest row whose pivot fails a check
	var badPiv, badMax float64
	for _, r := range s.back {
		i, d, end := r.row, r.diag, r.end
		piv := vals[d]
		var maxAbs float64
		if a := math.Abs(piv); a > maxAbs {
			maxAbs = a
		}
		updated := x[i] != 0
		acc := b[i]
		for t := d + 1; t < end; t++ {
			v := vals[t]
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
			if v == 0 && (updated || !s.orig[t]) {
				continue
			}
			acc -= float64(v * x[s.cols[t]])
		}
		if (piv == 0 || math.Abs(piv) < 1e-14*maxAbs) && int(i) < bad {
			bad, badPiv, badMax = int(i), piv, maxAbs
		}
		x[i] = acc / piv
	}
	switch {
	case bad == n:
		return nil
	case badPiv == 0:
		return fmt.Errorf("sparse: zero pivot at row %d", bad)
	default:
		return fmt.Errorf("sparse: pivot %g at row %d below threshold (row max %g)", badPiv, bad, badMax)
	}
}
