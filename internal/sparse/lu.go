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
// pivot order, laid out row-major as value slots, plus for every
// below-diagonal slot the slots its elimination updates. It is computed
// once per pattern by Analyze; each numeric factorization (Solve) then
// works on a flat []float64 of NNZ values and does no searching, sorting
// or allocation.
//
// A Symbolic is immutable after Analyze and safe for concurrent use; the
// value arrays and right-hand sides belong to the caller.
type Symbolic struct {
	n      int
	rowPtr []int32 // row i's slots are rowPtr[i]:rowPtr[i+1], columns ascending
	cols   []int32 // column of each slot
	diag   []int32 // slot of (i, i)
	orig   []bool  // slot is in the analyzed pattern (false: fill-in)
	// Eliminating below-diagonal slot s (row i, column k) subtracts a
	// multiple of row k's strictly-upper slots from the slots
	// upd[updPtr[s]:updPtr[s+1]] of row i, one target per source slot in
	// column order. Slots on or above the diagonal have empty ranges.
	updPtr []int32
	upd    []int32
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

	// Flag the analyzed positions (both lists are sorted row-major) and
	// resolve each below-diagonal slot's update targets through a dense
	// column→slot map of its row.
	nnz := len(s.cols)
	s.orig = make([]bool, nnz)
	s.updPtr = make([]int32, nnz+1)
	slot := make([]int32, n)
	p = 0
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
			for _, c := range s.cols[s.diag[k]+1 : s.rowPtr[k+1]] {
				s.upd = append(s.upd, slot[c])
			}
			s.updPtr[t+1] = int32(len(s.upd))
		}
		for t := s.diag[i]; t < s.rowPtr[i+1]; t++ {
			s.updPtr[t+1] = int32(len(s.upd))
		}
	}
	return s, nil
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
// for operation: every entry receives its updates in ascending pivot
// order, zero multipliers are skipped, and each pivot is checked against
// the largest magnitude in the upper part of its row. Solutions are
// therefore bit-identical, and so are the errors.
func (s *Symbolic) Solve(vals, b, x []float64) error {
	n := s.n
	if len(b) != n {
		return fmt.Errorf("sparse: rhs length %d != n %d", len(b), n)
	}
	if len(vals) != len(s.cols) || len(x) != n {
		return fmt.Errorf("sparse: %d values and %d unknowns for a %d-slot, %d-row pattern",
			len(vals), len(x), len(s.cols), n)
	}
	for i := 0; i < n; i++ {
		d := s.diag[i]
		updated := false
		for t := s.rowPtr[i]; t < d; t++ {
			l := vals[t]
			if l == 0 {
				continue
			}
			k := s.cols[t]
			dk := s.diag[k]
			f := l / vals[dk]
			src := vals[dk+1 : s.rowPtr[k+1]]
			dst := s.upd[s.updPtr[t]:s.updPtr[t+1]]
			for j, v := range src {
				vals[dst[j]] -= f * v
			}
			b[i] -= f * b[k]
			updated = true
		}
		piv := vals[d]
		if piv == 0 {
			return fmt.Errorf("sparse: zero pivot at row %d", i)
		}
		var maxAbs float64
		for _, v := range vals[d:s.rowPtr[i+1]] {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if math.Abs(piv) < 1e-14*maxAbs {
			return fmt.Errorf("sparse: pivot %g at row %d below threshold (row max %g)", piv, i, maxAbs)
		}
		// Until back-substitution reaches row i, x[i] records whether
		// elimination touched the row: Solver.Solve drops the zeros of a
		// row it rewrites but keeps the stored zeros of one it never
		// touches, and a stored zero still takes part in the sum below.
		x[i] = 0
		if updated {
			x[i] = 1
		}
	}
	for i := n - 1; i >= 0; i-- {
		d := s.diag[i]
		updated := x[i] != 0
		acc := b[i]
		for t := d + 1; t < s.rowPtr[i+1]; t++ {
			v := vals[t]
			if v == 0 && (updated || !s.orig[t]) {
				continue
			}
			acc -= v * x[s.cols[t]]
		}
		x[i] = acc / vals[d]
	}
	return nil
}
