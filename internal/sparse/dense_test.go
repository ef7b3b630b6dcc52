package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseSolve solves A·x = b by LU with partial pivoting — the gold
// standard the sparse solvers are checked against. A and b are destroyed.
func denseSolve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("dense: bad dimensions")
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
				p = i
			}
		}
		if a[p][k] == 0 {
			return nil, fmt.Errorf("dense: singular at column %d", k)
		}
		if p != k {
			a[p], a[k] = a[k], a[p]
			b[p], b[k] = b[k], b[p]
		}
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			if f == 0 {
				continue
			}
			a[i][k] = 0
			for j := k + 1; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
			b[i] -= f * b[k]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x, nil
}

func TestDenseSolveErrors(t *testing.T) {
	if _, err := denseSolve([][]float64{{0, 1}, {0, 1}}, []float64{1, 1}); err == nil {
		t.Fatal("singular dense must error")
	}
	if _, err := denseSolve(nil, nil); err == nil {
		t.Fatal("empty dense must error")
	}
}

func TestDensePermutationProperty(t *testing.T) {
	// denseSolve with partial pivoting handles row-swapped systems the
	// diagonal-pivot sparse solver cannot.
	f := func(a, b, c float64) bool {
		if math.IsNaN(a+b+c) || math.IsInf(a+b+c, 0) {
			return true
		}
		// [[0, 1], [1, 0]] x = [a, b] → x = [b, a]
		x, err := denseSolve([][]float64{{0, 1}, {1, 0}}, []float64{a, b})
		if err != nil {
			return false
		}
		return x[0] == b && x[1] == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSparseVsDense compares the solvers at a size where both run.
func BenchmarkSparseVsDense(b *testing.B) {
	n := 200
	build := func() (*Matrix, [][]float64, []float64) {
		rng := rand.New(rand.NewSource(5))
		m := NewMatrix(n)
		d := make([][]float64, n)
		rhs := make([]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			m.Add(i, i, 4)
			d[i][i] = 4
			if i > 0 {
				v := rng.Float64()
				m.Add(i, i-1, -v)
				d[i][i-1] = -v
			}
			if i < n-1 {
				v := rng.Float64()
				m.Add(i, i+1, -v)
				d[i][i+1] = -v
			}
			rhs[i] = 1
		}
		return m, d, rhs
	}
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _, rhs := build()
			if _, err := m.Solve(rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, d, rhs := build()
			if _, err := denseSolve(d, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
