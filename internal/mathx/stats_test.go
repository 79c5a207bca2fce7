package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(x, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	if !EqualApprox(got, want, 1e-12) {
		t.Fatalf("MovingAverage = %v, want %v", got, want)
	}
	if got := MovingAverage(x, 1); !EqualApprox(got, x, 0) {
		t.Fatalf("width 1 should copy, got %v", got)
	}
}

func TestMovingAveragePreservesMeanProperty(t *testing.T) {
	f := func(raw []float64, w uint8) bool {
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				v = append(v, x)
			}
		}
		if len(v) < 3 {
			return true
		}
		width := int(w%7)*2 + 1 // odd widths 1..13
		out := MovingAverage(v, width)
		min, max := MinMax(v)
		for _, x := range out {
			if x < min-1e-9 || x > max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
