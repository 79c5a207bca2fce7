package main

import (
	"sort"

	"dbcatcher/internal/mathx"
)

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so spreads computed here match the ones computed from
// the same values in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// segmentQuantile is the median over segments of each segment's
// q-quantile; cuts[i] is where segment i of xs ends. A host disturbance
// confined to a few segments does not move it.
func segmentQuantile(xs []float64, cuts []int, q float64) float64 {
	var per []float64
	lo := 0
	for _, hi := range cuts {
		if hi > lo {
			per = append(per, mathx.Quantile(xs[lo:hi], q))
		}
		lo = hi
	}
	return mathx.Median(per)
}

// usOf and msOf convert nanosecond samples for reporting.
func usOf(ns []float64) []float64 { return mathx.Scale(mathx.Clone(ns), 1e-3) }
func msOf(ns []float64) []float64 { return mathx.Scale(mathx.Clone(ns), 1e-6) }
