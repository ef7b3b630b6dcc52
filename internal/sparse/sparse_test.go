package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestAddAtNNZ(t *testing.T) {
	m := NewMatrix(3)
	m.Add(0, 0, 2)
	m.Add(0, 2, 1)
	m.Add(0, 0, 3) // accumulate
	m.Add(1, 1, 4)
	m.Add(2, 2, 0) // zero is dropped
	if got := m.At(0, 0); got != 5 {
		t.Fatalf("At(0,0) = %g", got)
	}
	if got := m.At(0, 1); got != 0 {
		t.Fatalf("At(0,1) = %g", got)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}

func TestSolveIdentity(t *testing.T) {
	m := NewMatrix(4)
	for i := 0; i < 4; i++ {
		m.Add(i, i, 1)
	}
	x, err := m.Solve([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if math.Abs(v-float64(i+1)) > 1e-15 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveTridiagonal(t *testing.T) {
	// The classic RC-ladder pattern: -1, 2, -1.
	n := 50
	m := NewMatrix(n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		m.Add(i, i, 2)
		if i > 0 {
			m.Add(i, i-1, -1)
		}
		if i < n-1 {
			m.Add(i, i+1, -1)
		}
		b[i] = 1
	}
	x, err := m.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic solution of −x'' = 1 with zero Dirichlet ends (discrete):
	// x_i = (i+1)(n−i)/2.
	for i := 0; i < n; i++ {
		want := float64(i+1) * float64(n-i) / 2
		if math.Abs(x[i]-want) > 1e-9*want {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want)
		}
	}
}

// randomDiagDominant builds a random strictly diagonally dominant sparse
// matrix (the class the SPICE engine produces).
func randomDiagDominant(rng *rand.Rand, n, extraPerRow int) (*Matrix, [][]float64) {
	m := NewMatrix(n)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		var off float64
		// Banded part plus a few random long-range couplings (like the
		// VDD/word-line nodes in the SRAM netlist).
		cols := []int{i - 1, i + 1}
		for k := 0; k < extraPerRow; k++ {
			cols = append(cols, rng.Intn(n))
		}
		for _, j := range cols {
			if j < 0 || j >= n || j == i {
				continue
			}
			v := rng.Float64()*2 - 1
			m.Add(i, j, v)
			d[i][j] += v
			off += math.Abs(d[i][j])
		}
		diag := off + 0.5 + rng.Float64()
		m.Add(i, i, diag)
		d[i][i] += diag
	}
	return m, d
}

func TestSolveMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(60)
		m, d := randomDiagDominant(rng, n, 2)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		bCopy := append([]float64(nil), b...)
		xs, err := m.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		xd, err := denseSolve(d, bCopy)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		for i := range xs {
			if math.Abs(xs[i]-xd[i]) > 1e-8*(1+math.Abs(xd[i])) {
				t.Fatalf("trial %d: x[%d] sparse %g vs dense %g", trial, i, xs[i], xd[i])
			}
		}
	}
}

func TestSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(40)
		m, _ := randomDiagDominant(r, n, 1)
		orig := m.Clone()
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		bOrig := append([]float64(nil), b...)
		x, err := m.Solve(b)
		if err != nil {
			return false
		}
		res := orig.MulVec(x)
		for i := range res {
			if math.Abs(res[i]-bOrig[i]) > 1e-8*(1+math.Abs(bOrig[i])) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 40; trial++ {
		if !f(rng.Int63()) {
			t.Fatal("residual check failed")
		}
	}
}

func TestSolveErrors(t *testing.T) {
	m := NewMatrix(2)
	m.Add(0, 1, 1)
	m.Add(1, 0, 1)
	// Zero diagonal → rejected (no pivoting by design).
	if _, err := m.Solve([]float64{1, 1}); err == nil {
		t.Fatal("zero diagonal must error")
	}
	m2 := NewMatrix(2)
	m2.Add(0, 0, 1)
	m2.Add(1, 1, 1)
	if _, err := m2.Solve([]float64{1}); err == nil {
		t.Fatal("bad rhs length must error")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatrix(2)
	m.Add(0, 0, 1)
	m.Add(1, 1, 1)
	c := m.Clone()
	c.Add(0, 0, 5)
	if m.At(0, 0) != 1 || c.At(0, 0) != 6 {
		t.Fatal("clone not independent")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2)
	m.Add(0, 0, 2)
	m.Add(0, 1, 1)
	m.Add(1, 0, -1)
	m.Add(1, 1, 3)
	y := m.MulVec([]float64{1, 2})
	if y[0] != 4 || y[1] != 5 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestSolverReuseBitIdenticalToSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var s Solver
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(50)
		m, _ := randomDiagDominant(rng, n, 3)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		// Same system through the one-shot path and the reused solver.
		m2 := m.Clone()
		b2 := append([]float64(nil), b...)
		want, err := m.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: solve: %v", trial, err)
		}
		got, err := s.Solve(m2, b2)
		if err != nil {
			t.Fatalf("trial %d: solver: %v", trial, err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d (n=%d): x[%d] differs: one-shot %v vs reused solver %v",
					trial, n, i, want[i], got[i])
			}
		}
	}
}

func TestSolverScratchCleanAfterError(t *testing.T) {
	var s Solver
	// Singular system: leave a zero pivot at row 1.
	bad := NewMatrix(2)
	bad.Add(0, 0, 1)
	if _, err := s.Solve(bad, []float64{1, 1}); err == nil {
		t.Fatal("expected zero-pivot error")
	}
	// The same solver must still produce exact results afterwards.
	m := NewMatrix(2)
	m.Add(0, 0, 2)
	m.Add(1, 1, 4)
	x, err := s.Solve(m, []float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("post-error solve: x = %v", x)
	}
}

func TestMatrixReuseAndCopyFrom(t *testing.T) {
	src := NewMatrix(3)
	src.Add(0, 0, 2)
	src.Add(1, 1, 3)
	src.Add(2, 0, -1)
	src.Add(2, 2, 5)

	var m Matrix
	m.CopyFrom(src)
	if m.N != 3 || m.NNZ() != src.NNZ() {
		t.Fatalf("CopyFrom: n=%d nnz=%d", m.N, m.NNZ())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != src.At(i, j) {
				t.Fatalf("CopyFrom: (%d,%d) = %g want %g", i, j, m.At(i, j), src.At(i, j))
			}
		}
	}
	// Mutating the copy must not touch the source.
	m.Add(0, 0, 1)
	if src.At(0, 0) != 2 {
		t.Fatalf("CopyFrom aliased source: src(0,0) = %g", src.At(0, 0))
	}
	// Shrink, then grow: contents reset to zero either way.
	m.Reuse(2)
	if m.N != 2 || m.NNZ() != 0 {
		t.Fatalf("Reuse(2): n=%d nnz=%d", m.N, m.NNZ())
	}
	m.Reuse(5)
	if m.N != 5 || m.NNZ() != 0 {
		t.Fatalf("Reuse(5): n=%d nnz=%d", m.N, m.NNZ())
	}
	m.Add(4, 4, 1)
	if m.At(4, 4) != 1 {
		t.Fatalf("Reuse(5) then Add: %g", m.At(4, 4))
	}
}
