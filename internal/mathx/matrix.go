package mathx

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mathx: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec returns m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if len(v) != m.Cols {
		panic(ErrLengthMismatch)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), v)
	}
	return out
}

// TMulVec returns mᵀ·v.
func (m *Matrix) TMulVec(v []float64) []float64 {
	if len(v) != m.Rows {
		panic(ErrLengthMismatch)
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		vi := v[i]
		for j, x := range row {
			out[j] += x * vi
		}
	}
	return out
}

// Mul returns m·other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(ErrLengthMismatch)
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			orow := other.Row(k)
			dst := out.Row(i)
			for j, b := range orow {
				dst[j] += a * b
			}
		}
	}
	return out
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}

// ErrSingular is returned when a linear solve encounters a (numerically)
// singular system.
var ErrSingular = errors.New("mathx: singular matrix")

// SolveCholesky solves A·x = b for symmetric positive-definite A using a
// Cholesky factorization. A is not modified.
func SolveCholesky(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, ErrLengthMismatch
	}
	// Factor A = L·Lᵀ.
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 1e-14 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	// Forward substitution L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min ‖A·x − b‖₂ via the regularized normal equations
// (AᵀA + λI)x = Aᵀb with a tiny ridge λ for numerical stability.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, ErrLengthMismatch
	}
	at := a.Transpose()
	ata := at.Mul(a)
	// Ridge scaled to the trace keeps conditioning reasonable without
	// visibly biasing the solution.
	var trace float64
	for i := 0; i < ata.Rows; i++ {
		trace += ata.At(i, i)
	}
	lambda := 1e-10 * (trace + 1)
	for i := 0; i < ata.Rows; i++ {
		ata.Set(i, i, ata.At(i, i)+lambda)
	}
	atb := a.TMulVec(b)
	return SolveCholesky(ata, atb)
}
