// Package mathx provides the numerical substrate shared by every other
// package in the repository: vector and matrix helpers, a fast Fourier
// transform, online statistics, and a deterministic random source.
//
// Everything is implemented with the standard library only. The package is
// deliberately small-surface: callers pass and receive plain []float64 and
// the few concrete types defined here.
package mathx

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned by binary vector operations whose operands
// have different lengths.
var ErrLengthMismatch = errors.New("mathx: vector length mismatch")

// Dot returns the inner product of a and b. It panics if the lengths differ;
// use DotChecked when the lengths come from untrusted input.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrLengthMismatch)
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v (dividing by n, not n-1),
// or 0 for slices shorter than 2.
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of v.
func Std(v []float64) float64 { return math.Sqrt(Variance(v)) }

// MinMax returns the minimum and maximum of v. For an empty slice it
// returns (0, 0).
func MinMax(v []float64) (min, max float64) {
	if len(v) == 0 {
		return 0, 0
	}
	min, max = v[0], v[0]
	for _, x := range v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Scale multiplies every element of v by k in place and returns v.
func Scale(v []float64, k float64) []float64 {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Median returns the median of v without modifying it. It returns 0 for an
// empty slice.
func Median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	tmp := Clone(v)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// MAD returns the median absolute deviation of v (scaled by 1.4826 so that
// it estimates the standard deviation for Gaussian data).
func MAD(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Median(v)
	dev := make([]float64, len(v))
	for i, x := range v {
		dev[i] = math.Abs(x - m)
	}
	return 1.4826 * Median(dev)
}

// Quantile returns the q-quantile (0 <= q <= 1) of v using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Quantile(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	tmp := Clone(v)
	sort.Float64s(tmp)
	if q <= 0 {
		return tmp[0]
	}
	if q >= 1 {
		return tmp[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo]
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// Normalize rescales v into [0, 1] using min-max scaling (paper Eq. 1) and
// returns a new slice. A constant series maps to all zeros.
func Normalize(v []float64) []float64 {
	return NormalizeInto(make([]float64, len(v)), v)
}

// NormalizeInto is Normalize writing into a caller-owned buffer of the same
// length, so hot paths can rescale without allocating. It returns dst.
func NormalizeInto(dst, src []float64) []float64 {
	if len(dst) != len(src) {
		panic(ErrLengthMismatch)
	}
	min, max := MinMax(src)
	span := max - min
	if span == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, x := range src {
		dst[i] = (x - min) / span
	}
	return dst
}

// EqualApprox reports whether a and b have the same length and differ by at
// most tol element-wise.
func EqualApprox(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
