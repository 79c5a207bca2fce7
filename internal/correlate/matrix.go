package correlate

import (
	"fmt"

	"dbcatcher/internal/mathx"
)

// Measure computes a correlation score in [-1, 1] (or [0, 1]) between two
// equal-length windows. KCD, Pearson, and DTWSimilarity all fit this shape
// via small closures, which is how Table X swaps measurement methods.
type Measure func(x, y []float64) float64

// KCDMeasure adapts KCD with the given options to the Measure interface.
func KCDMeasure(opts Options) Measure {
	return func(x, y []float64) float64 { return KCD(x, y, opts) }
}

// PearsonMeasure adapts Pearson correlation on min-max-normalized windows
// ("MM-Pearson" in Table X).
func PearsonMeasure() Measure {
	return func(x, y []float64) float64 {
		return Pearson(mathx.Normalize(x), mathx.Normalize(y))
	}
}

// DTWMeasure adapts DTW similarity ("MM-DTW" in Table X) with the given
// band radius.
func DTWMeasure(radius int) Measure {
	return func(x, y []float64) float64 { return DTWSimilarity(x, y, radius) }
}

// Matrix is one correlation matrix CM_j of Eq. 5: the pairwise correlation
// scores of N databases on one KPI within a time window. Only the upper
// triangle is stored (the matrix is symmetric with unit diagonal).
type Matrix struct {
	N      int
	scores []float64 // packed upper triangle, row-major, excluding diagonal
}

// NewMatrix returns an N×N correlation matrix with all pair scores zero.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("correlate: negative matrix size")
	}
	return &Matrix{N: n, scores: make([]float64, n*(n-1)/2)}
}

// index maps (i, j) with i < j to the packed triangle offset.
func (m *Matrix) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i == j || j >= m.N || i < 0 {
		panic(fmt.Sprintf("correlate: bad pair (%d, %d) for N=%d", i, j, m.N))
	}
	// Offset of row i in the packed triangle plus column displacement.
	return i*(2*m.N-i-1)/2 + (j - i - 1)
}

// At returns the correlation score between databases i and j. The diagonal
// is 1 by definition.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		if i < 0 || i >= m.N {
			panic(fmt.Sprintf("correlate: index %d out of range", i))
		}
		return 1
	}
	return m.scores[m.index(i, j)]
}

// Set stores the score for the unordered pair (i, j), i != j.
func (m *Matrix) Set(i, j int, v float64) { m.scores[m.index(i, j)] = v }
