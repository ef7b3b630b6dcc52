// Package sparse implements the linear-algebra kernel of the SPICE engine:
// a symbolic-once LU for the diagonally dominant nodal matrices that RC
// ladders with embedded transistors produce.
//
// The engine's path splits the factorization the way KLU does (Davis &
// Palamadai Natarajan, 2010). Analyze computes, once per circuit
// topology, the matrix pattern with its fill-in under the natural order,
// laid out as value slots, and a schedule of the numeric work: one record
// per below-diagonal slot with the slots its elimination updates, in
// dependency-level order (Anderson & Saad, 1989). Each Newton iteration
// then assembles the values into a flat []float64 over those slots and
// calls Symbolic.Solve, a numeric refactorization plus substitution that
// does no searching, sorting or allocation. Pivoting is diagonal-only: the engine guarantees
// strictly positive diagonals (gmin, source series conductances), which is
// the standard SPICE contract; a vanishing pivot is reported as an error.
//
// Matrix and Solver are the row-sparse form with in-place Gaussian
// elimination (per-column occupancy lists and a dense scatter accumulator,
// Gilbert–Peierls style) that derives its pattern on the fly. They serve
// callers that assemble an arbitrary system once, and they are the
// reference the symbolic path is fuzzed against: Symbolic.Solve performs
// Solver.Solve's arithmetic operation for operation, so the two agree bit
// for bit.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Entry is one nonzero within a row.
type Entry struct {
	Col int
	Val float64
}

// Matrix is a square row-sparse matrix.
type Matrix struct {
	N    int
	Rows [][]Entry
}

// NewMatrix returns an N×N zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Rows: make([][]Entry, n)}
}

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	row := m.Rows[i]
	k := sort.Search(len(row), func(k int) bool { return row[k].Col >= j })
	if k < len(row) && row[k].Col == j {
		row[k].Val += v
		return
	}
	row = append(row, Entry{})
	copy(row[k+1:], row[k:])
	row[k] = Entry{Col: j, Val: v}
	m.Rows[i] = row
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	row := m.Rows[i]
	k := sort.Search(len(row), func(k int) bool { return row[k].Col >= j })
	if k < len(row) && row[k].Col == j {
		return row[k].Val
	}
	return 0
}

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int {
	n := 0
	for _, r := range m.Rows {
		n += len(r)
	}
	return n
}

// Clone returns a deep copy with fresh storage. Loops that refill the
// same destination repeatedly use CopyFrom instead, which reuses the
// destination's row storage.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	for i, r := range m.Rows {
		c.Rows[i] = append([]Entry(nil), r...)
	}
	return c
}

// Reuse resets m to an n×n zero matrix while retaining the row storage
// already allocated, so a hot loop can re-stamp a same-size (or smaller)
// system without going back to the allocator.
func (m *Matrix) Reuse(n int) {
	if cap(m.Rows) >= n {
		m.Rows = m.Rows[:n]
	} else {
		old := m.Rows
		m.Rows = make([][]Entry, n)
		copy(m.Rows, old)
	}
	for i := range m.Rows {
		m.Rows[i] = m.Rows[i][:0]
	}
	m.N = n
}

// CopyFrom overwrites m with the contents of src, reusing m's row storage.
// It is the allocation-free counterpart of Clone for matrices that are
// refilled every iteration.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.Reuse(src.N)
	for i, r := range src.Rows {
		m.Rows[i] = append(m.Rows[i], r...)
	}
}

// MulVec computes y = M·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	y := make([]float64, m.N)
	for i, row := range m.Rows {
		var s float64
		for _, e := range row {
			s += float64(e.Val * x[e.Col])
		}
		y[i] = s
	}
	return y
}

// Solve performs in-place Gaussian elimination on the matrix and
// right-hand side b, returning the solution. The matrix is destroyed.
// Diagonal pivots below tol×(row max) are rejected. It is a convenience
// wrapper over Solver.Solve with throwaway scratch; loops should hold a
// Solver, or a Symbolic when the pattern repeats.
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	var s Solver
	sol, err := s.Solve(m, b)
	if err != nil {
		return nil, err
	}
	// Detach from the throwaway scratch so the caller owns the result.
	return append([]float64(nil), sol...), nil
}

// Solver carries the factorization scratch of Matrix.Solve — the column
// occupancy lists, the dense scatter accumulator and the solution vector —
// so a loop can solve many same-size systems without reallocating any of
// it. The elimination
// arithmetic is identical to the scratch-free path, so solutions are
// bit-for-bit the same for the same inputs.
//
// The zero Solver is ready for use. A Solver is not safe for concurrent
// use.
type Solver struct {
	cols    [][]int
	x       []float64
	mark    []bool
	touched []int
	sol     []float64
}

// reset sizes the scratch for an n-unknown solve. The scatter accumulator
// and marks are cleared defensively; the occupancy lists are truncated and
// re-seeded by the caller.
func (s *Solver) reset(n int) {
	if cap(s.cols) >= n {
		s.cols = s.cols[:n]
	} else {
		s.cols = make([][]int, n)
	}
	for i := range s.cols {
		s.cols[i] = s.cols[i][:0]
	}
	if cap(s.x) >= n {
		s.x = s.x[:n]
	} else {
		s.x = make([]float64, n)
	}
	clear(s.x)
	if cap(s.mark) >= n {
		s.mark = s.mark[:n]
	} else {
		s.mark = make([]bool, n)
	}
	clear(s.mark)
	if cap(s.sol) >= n {
		s.sol = s.sol[:n]
	} else {
		s.sol = make([]float64, n)
	}
	s.touched = s.touched[:0]
}

// Solve performs in-place Gaussian elimination on m and right-hand side b,
// returning the solution. The matrix is destroyed. The returned slice
// aliases the solver's scratch and is only valid until the next Solve call
// on this solver.
func (s *Solver) Solve(m *Matrix, b []float64) ([]float64, error) {
	n := m.N
	if len(b) != n {
		return nil, fmt.Errorf("sparse: rhs length %d != n %d", len(b), n)
	}
	s.reset(n)
	// Column occupancy: rows (strictly below the diagonal during the
	// sweep) holding a nonzero in each column. Seeded from the initial
	// pattern, extended on fill-in. Entries may be stale (already
	// eliminated); they are filtered when visited.
	cols := s.cols
	for i, row := range m.Rows {
		for _, e := range row {
			if e.Col < i {
				cols[e.Col] = append(cols[e.Col], i)
			}
		}
	}
	// Dense scratch accumulator for row updates.
	x := s.x
	mark := s.mark
	for k := 0; k < n; k++ {
		rowK := m.Rows[k]
		// Locate the pivot.
		pk := sort.Search(len(rowK), func(t int) bool { return rowK[t].Col >= k })
		if pk >= len(rowK) || rowK[pk].Col != k || rowK[pk].Val == 0 {
			return nil, fmt.Errorf("sparse: zero pivot at row %d", k)
		}
		piv := rowK[pk].Val
		var maxAbs float64
		for _, e := range rowK {
			if a := math.Abs(e.Val); a > maxAbs {
				maxAbs = a
			}
		}
		if math.Abs(piv) < 1e-14*maxAbs {
			return nil, fmt.Errorf("sparse: pivot %g at row %d below threshold (row max %g)", piv, k, maxAbs)
		}
		for _, i := range cols[k] {
			if i <= k {
				continue
			}
			rowI := m.Rows[i]
			ti := sort.Search(len(rowI), func(t int) bool { return rowI[t].Col >= k })
			if ti >= len(rowI) || rowI[ti].Col != k || rowI[ti].Val == 0 {
				continue // stale occupancy entry
			}
			factor := rowI[ti].Val / piv
			// Scatter row i (columns ≥ k only; below-k already done).
			touched := s.touched[:0]
			for _, e := range rowI[ti:] {
				x[e.Col] = e.Val
				mark[e.Col] = true
				touched = append(touched, e.Col)
			}
			// Subtract factor × row k (columns ≥ k).
			for _, e := range rowK[pk:] {
				if !mark[e.Col] {
					mark[e.Col] = true
					touched = append(touched, e.Col)
					x[e.Col] = 0
					if e.Col > k && i > e.Col {
						// fill-in below the diagonal in column e.Col
						cols[e.Col] = append(cols[e.Col], i)
					} else if e.Col > k && i < e.Col {
						// fill above diagonal needs no occupancy
						_ = i
					}
				}
				x[e.Col] -= float64(factor * e.Val)
			}
			b[i] -= float64(factor * b[k])
			// Gather back: keep columns > k (column k is eliminated).
			sort.Ints(touched)
			newRow := rowI[:ti]
			for _, c := range touched {
				if c > k && x[c] != 0 {
					newRow = append(newRow, Entry{Col: c, Val: x[c]})
				}
				mark[c] = false
				x[c] = 0
			}
			m.Rows[i] = newRow
			s.touched = touched[:0]
		}
	}
	// Back substitution.
	sol := s.sol
	for i := n - 1; i >= 0; i-- {
		row := m.Rows[i]
		acc := b[i]
		var diag float64
		for _, e := range row {
			switch {
			case e.Col == i:
				diag = e.Val
			case e.Col > i:
				acc -= float64(e.Val * sol[e.Col])
			}
		}
		if diag == 0 {
			return nil, fmt.Errorf("sparse: zero diagonal at back-substitution row %d", i)
		}
		sol[i] = acc / diag
	}
	return sol, nil
}
