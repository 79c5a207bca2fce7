package mathx

import (
	"math"
	"math/cmplx"
	"testing"
)

// naiveDFT is the O(n²) reference used to validate the FFT implementations.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			out[k] += x[j] * cmplx.Rect(1, ang)
		}
	}
	return out
}

func complexApproxEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := NewRNG(1)
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Norm(), rng.Norm())
		}
		want := naiveDFT(x)
		got := FFT(Clone2(x))
		if !complexApproxEqual(got, want, 1e-8*float64(n)) {
			t.Fatalf("FFT(n=%d) mismatch", n)
		}
	}
}

// Clone2 copies a complex slice (test helper).
func Clone2(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	return out
}

func TestFFTAnyMatchesNaiveDFT(t *testing.T) {
	rng := NewRNG(2)
	for _, n := range []int{1, 3, 5, 7, 12, 33, 100, 127} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Norm(), rng.Norm())
		}
		want := naiveDFT(x)
		got := FFTAny(x)
		if !complexApproxEqual(got, want, 1e-7*float64(n)) {
			t.Fatalf("FFTAny(n=%d) mismatch", n)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := NewRNG(3)
	x := make([]complex128, 128)
	for i := range x {
		x[i] = complex(rng.Norm(), rng.Norm())
	}
	orig := Clone2(x)
	IFFT(FFT(x))
	if !complexApproxEqual(x, orig, 1e-9) {
		t.Fatal("IFFT(FFT(x)) != x")
	}
}

func TestRealFFTRoundTrip(t *testing.T) {
	rng := NewRNG(4)
	for _, n := range []int{8, 17, 50, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Norm()
		}
		back := RealIFFT(RealFFT(x))
		if !EqualApprox(back, x, 1e-8) {
			t.Fatalf("RealFFT round trip failed for n=%d", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func naiveCrossCorr(a, b []float64) []float64 {
	na, nb := len(a), len(b)
	out := make([]float64, na+nb-1)
	for k := -(nb - 1); k <= na-1; k++ {
		var s float64
		for i := 0; i < nb; i++ {
			j := i + k
			if j >= 0 && j < na {
				s += a[j] * b[i]
			}
		}
		out[k+nb-1] = s
	}
	return out
}

func TestCrossCorrelateFFTMatchesNaive(t *testing.T) {
	rng := NewRNG(5)
	for _, sz := range [][2]int{{4, 4}, {8, 5}, {20, 20}, {33, 7}} {
		a := make([]float64, sz[0])
		b := make([]float64, sz[1])
		for i := range a {
			a[i] = rng.Norm()
		}
		for i := range b {
			b[i] = rng.Norm()
		}
		want := naiveCrossCorr(a, b)
		got := CrossCorrelateFFT(a, b)
		if !EqualApprox(got, want, 1e-8) {
			t.Fatalf("cross-correlation mismatch for sizes %v:\n got %v\nwant %v", sz, got, want)
		}
	}
}

func TestPeriodogramPeak(t *testing.T) {
	// A pure sinusoid with 8 cycles over 128 samples must peak at bin 8.
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 8 * float64(i) / float64(n))
	}
	p := Periodogram(x)
	if got := ArgMax(p[1:]) + 1; got != 8 {
		t.Fatalf("periodogram peak at bin %d, want 8", got)
	}
}

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// Period-16 sine: autocorrelation at lag 16 should be close to 1.
	n := 256
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 16)
	}
	ac := Autocorrelation(x, 32)
	if math.Abs(ac[0]-1) > 1e-9 {
		t.Fatalf("ac[0] = %v, want 1", ac[0])
	}
	if ac[16] < 0.9 {
		t.Fatalf("ac[16] = %v, want close to 1", ac[16])
	}
	if ac[8] > -0.9 {
		t.Fatalf("ac[8] = %v, want close to -1 (anti-phase)", ac[8])
	}
}

func TestAutocorrelationConstant(t *testing.T) {
	ac := Autocorrelation([]float64{3, 3, 3, 3}, 2)
	for _, v := range ac {
		if v != 0 {
			t.Fatalf("constant series autocorrelation = %v, want zeros", ac)
		}
	}
}
