package mathx

// MovingAverage smooths x with a centered window of the given odd width,
// shrinking the window at the boundaries. width <= 1 returns a copy.
func MovingAverage(x []float64, width int) []float64 {
	n := len(x)
	out := make([]float64, n)
	if width <= 1 {
		copy(out, x)
		return out
	}
	half := width / 2
	for i := 0; i < n; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= n {
			hi = n - 1
		}
		var s float64
		for j := lo; j <= hi; j++ {
			s += x[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// Autocorrelation returns the normalized autocorrelation of x for lags
// 0..maxLag. r[0] is always 1 unless the series is constant (then all
// zeros).
func Autocorrelation(x []float64, maxLag int) []float64 {
	n := len(x)
	if n == 0 || maxLag < 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	m := Mean(x)
	centered := make([]float64, n)
	for i, v := range x {
		centered[i] = v - m
	}
	var denom float64
	for _, v := range centered {
		denom += v * v
	}
	out := make([]float64, maxLag+1)
	if denom == 0 {
		return out
	}
	for k := range out {
		var s float64
		for i := k; i < n; i++ {
			s += centered[i] * centered[i-k]
		}
		out[k] = s / denom
	}
	return out
}
