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
