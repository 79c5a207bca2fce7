package correlate

import (
	"math"

	"dbcatcher/internal/mathx"
)

// Pearson returns the Pearson correlation coefficient of two equal-length
// windows, in [-1, 1]. Constant windows follow the same degenerate rules as
// KCD: both constant -> 1, one constant -> 0.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if len(y) != n {
		panic(mathx.ErrLengthMismatch)
	}
	if n == 0 {
		return 0
	}
	mx, my := mathx.Mean(x), mathx.Mean(y)
	var num, nx, ny float64
	for i := 0; i < n; i++ {
		a, b := x[i]-mx, y[i]-my
		num += a * b
		nx += a * a
		ny += b * b
	}
	if nx == 0 && ny == 0 {
		return 1
	}
	return safeRatio(num, nx, ny, 0, 0)
}

// DTWDistance returns the dynamic-time-warping distance between x and y
// with a Sakoe-Chiba band of the given radius (radius < 0 means
// unconstrained). Cost is squared pointwise difference; the returned value
// is the square root of the accumulated cost.
func DTWDistance(x, y []float64, radius int) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	if radius < 0 {
		radius = max(n, m)
	}
	// Ensure the band is wide enough to connect the corners when the
	// lengths differ.
	if d := abs(n - m); radius < d {
		radius = d
	}
	const inf = math.MaxFloat64
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo := max(1, i-radius)
		hi := min(m, i+radius)
		for j := lo; j <= hi; j++ {
			d := x[i-1] - y[j-1]
			c := d * d
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = c + best
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(prev[m])
}

// DTWSimilarity converts the DTW distance between min-max-normalized
// windows into a correlation-like score in (0, 1]: identical trends score
// 1, diverging trends approach 0. This is the "MM-DTW" variant of Table X.
func DTWSimilarity(x, y []float64, radius int) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	nx := mathx.Normalize(x)
	ny := mathx.Normalize(y)
	d := DTWDistance(nx, ny, radius)
	// Normalize by sqrt of path length so the score is window-size free.
	return 1 / (1 + d/math.Sqrt(float64(len(x))))
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
