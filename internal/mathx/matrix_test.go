package mathx

import (
	"math"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	if m.At(0, 2) != 2 || m.At(1, 1) != 3 {
		t.Fatal("Set/At broken")
	}
	if got := m.Row(1); !EqualApprox(got, []float64{0, 3, 0}, 0) {
		t.Fatalf("Row = %v", got)
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	got := m.MulVec([]float64{1, 1})
	if !EqualApprox(got, []float64{3, 7}, 0) {
		t.Fatalf("MulVec = %v", got)
	}
	gotT := m.TMulVec([]float64{1, 1})
	if !EqualApprox(gotT, []float64{4, 6}, 0) {
		t.Fatalf("TMulVec = %v", gotT)
	}
}

func TestMatrixMulAndTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	for i := 0; i < 6; i++ {
		a.Data[i] = float64(i + 1) // [1 2 3; 4 5 6]
	}
	b := a.Transpose()
	if b.Rows != 3 || b.Cols != 2 || b.At(2, 1) != 6 {
		t.Fatalf("Transpose wrong: %v", b)
	}
	p := a.Mul(b) // 2x2: [[14,32],[32,77]]
	if p.At(0, 0) != 14 || p.At(0, 1) != 32 || p.At(1, 0) != 32 || p.At(1, 1) != 77 {
		t.Fatalf("Mul = %v", p)
	}
}

func TestSolveCholesky(t *testing.T) {
	// A = [[4,2],[2,3]], b = [6,5] -> x = [1,1].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	x, err := SolveCholesky(a, []float64{6, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(x, []float64{1, 1}, 1e-10) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveCholeskySingular(t *testing.T) {
	a := NewMatrix(2, 2) // all zeros
	if _, err := SolveCholesky(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	// y = 2*x0 - 3*x1 with noiseless design.
	rng := NewRNG(11)
	n, p := 50, 2
	a := NewMatrix(n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := rng.Norm(), rng.Norm()
		a.Set(i, 0, x0)
		a.Set(i, 1, x1)
		y[i] = 2*x0 - 3*x1
	}
	coef, err := LeastSquares(a, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-2) > 1e-4 || math.Abs(coef[1]+3) > 1e-4 {
		t.Fatalf("coef = %v, want [2, -3]", coef)
	}
}
