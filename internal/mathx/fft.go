package mathx

import "math/cmplx"

import "math"

// FFT computes the in-place radix-2 Cooley-Tukey fast Fourier transform of
// x. The length of x must be a power of two; use FFTAny for arbitrary
// lengths. The input slice is modified and returned.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return x
	}
	if n&(n-1) != 0 {
		panic("mathx: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterfly stages.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
	return x
}

// IFFT computes the in-place inverse FFT of x (power-of-two length).
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return x
	}
	// Conjugate, forward transform, conjugate, scale.
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	FFT(x)
	inv := 1 / float64(n)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * complex(inv, 0)
	}
	return x
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFTAny computes the DFT of x for any length using Bluestein's algorithm
// (chirp-z transform) backed by the power-of-two FFT. The input slice is not
// modified; a new slice is returned.
func FFTAny(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := make([]complex128, n)
		copy(out, x)
		return FFT(out)
	}
	// Bluestein: X_k = b*_k * (a ⊛ b)_k with a_j = x_j b*_j,
	// b_j = exp(iπ j² / n).
	m := NextPow2(2*n - 1)
	a := make([]complex128, m)
	b := make([]complex128, m)
	chirp := make([]complex128, n)
	for j := 0; j < n; j++ {
		// Reduce j² mod 2n before the trig call to keep the angle small.
		jj := int64(j) * int64(j) % int64(2*n)
		chirp[j] = cmplx.Rect(1, math.Pi*float64(jj)/float64(n))
	}
	for j := 0; j < n; j++ {
		a[j] = x[j] * cmplx.Conj(chirp[j])
		b[j] = chirp[j]
		if j != 0 {
			b[m-j] = chirp[j]
		}
	}
	FFT(a)
	FFT(b)
	for i := range a {
		a[i] *= b[i]
	}
	IFFT(a)
	out := make([]complex128, n)
	for j := 0; j < n; j++ {
		out[j] = a[j] * cmplx.Conj(chirp[j])
	}
	return out
}

// RealFFT computes the DFT of a real-valued signal of any length and returns
// the complex spectrum.
func RealFFT(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFTAny(c)
}

// RealIFFT inverts a spectrum produced by RealFFT and returns the real part
// of the reconstruction.
func RealIFFT(spec []complex128) []float64 {
	n := len(spec)
	if n == 0 {
		return nil
	}
	var c []complex128
	if n&(n-1) == 0 {
		c = make([]complex128, n)
		copy(c, spec)
		IFFT(c)
	} else {
		// IDFT via conjugation + forward Bluestein transform.
		tmp := make([]complex128, n)
		for i, v := range spec {
			tmp[i] = cmplx.Conj(v)
		}
		fw := FFTAny(tmp)
		c = make([]complex128, n)
		inv := 1 / float64(n)
		for i, v := range fw {
			c[i] = cmplx.Conj(v) * complex(inv, 0)
		}
	}
	out := make([]float64, n)
	for i, v := range c {
		out[i] = real(v)
	}
	return out
}
