package correlate

import (
	"math"
	"testing"
)

// gapByte is the fuzz byte that stands for a collector gap (a NaN point),
// so the corpus exercises the kernel's gap repair alongside clean windows.
const gapByte = 255

// FuzzKCD drives the delay scan with arbitrary byte-derived windows, gaps
// included: the score must always be a finite value in [-1, 1] and
// symmetric, the scratch path must be bit-identical to the allocating one
// and to the paper-literal oracle (score bits and delay), and gap repair
// must never write through to the caller's windows.
func FuzzKCD(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{0, 0, 0, 0}, []byte{1, 1, 1, 1})
	f.Add([]byte{255}, []byte{0})
	f.Add([]byte{255, 2, 255, 255, 5, 6, 7, 255}, []byte{1, 2, 3, 4, 255, 6, 7, 8})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 || n > 256 {
			return
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = float64(a[i]) - 100
			y[i] = float64(b[i]) * 3
			if a[i] == gapByte {
				x[i] = math.NaN()
			}
			if b[i] == gapByte {
				y[i] = math.NaN()
			}
		}
		x0 := append([]float64(nil), x...)
		y0 := append([]float64(nil), y...)
		// One scratch reused across every option set and both argument
		// orders: stale buffer contents must never leak into a result.
		scratch := NewScratch()
		for _, opts := range []Options{DefaultOptions(), DetectionOptions(), {MaxDelayFraction: 0.3}} {
			s, d := KCDWithDelay(x, y, opts)
			if math.IsNaN(s) || s < -1-1e-9 || s > 1+1e-9 {
				t.Fatalf("KCD out of range: %v (opts %+v)", s, opts)
			}
			if r := KCD(y, x, opts); math.Abs(r-s) > 1e-9 {
				t.Fatalf("asymmetric: %v vs %v", s, r)
			}
			// The scratch-buffer path must be bit-identical to the
			// allocating path, score and delay both.
			ss, sd := KCDWithDelayScratch(x, y, opts, scratch)
			if ss != s || sd != d {
				t.Fatalf("scratch path diverged: (%v, %v) vs (%v, %v) (opts %+v)",
					ss, sd, s, d, opts)
			}
			if want, wantDelay := oracleKCD(x, y, opts); math.Float64bits(ss) != math.Float64bits(want) || sd != wantDelay {
				t.Fatalf("kernel diverged from the oracle: (%v, %v) vs (%v, %v) (opts %+v)",
					ss, sd, want, wantDelay, opts)
			}
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(x[i]) != math.Float64bits(x0[i]) ||
				math.Float64bits(y[i]) != math.Float64bits(y0[i]) {
				t.Fatalf("KCD wrote through to the input windows at %d", i)
			}
		}
	})
}
