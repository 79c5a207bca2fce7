package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestMeanVarianceStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(v); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Std(v); got != 2 {
		t.Errorf("Std = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty slice stats should be 0")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %v, %v", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Fatalf("MinMax(nil) = %v, %v", min, max)
	}
}

func TestNormalizeRange(t *testing.T) {
	out := Normalize([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	if !EqualApprox(out, want, 1e-12) {
		t.Fatalf("Normalize = %v, want %v", out, want)
	}
}

func TestNormalizeConstant(t *testing.T) {
	out := Normalize([]float64{5, 5, 5})
	if !EqualApprox(out, []float64{0, 0, 0}, 0) {
		t.Fatalf("constant series should normalize to zeros, got %v", out)
	}
}

func TestNormalizePropertyBounds(t *testing.T) {
	f := func(v []float64) bool {
		for i := range v {
			// Keep magnitudes where max-min cannot overflow; KPI data is
			// nowhere near float64 extremes.
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) || math.Abs(v[i]) > 1e150 {
				v[i] = 0
			}
		}
		out := Normalize(v)
		for _, x := range out {
			if x < 0 || x > 1 || math.IsNaN(x) {
				return false
			}
		}
		return len(out) == len(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	if got := Median(v); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even Median = %v, want 2.5", got)
	}
	if got := Quantile(v, 0); got != 1 {
		t.Errorf("Q0 = %v, want 1", got)
	}
	if got := Quantile(v, 1); got != 9 {
		t.Errorf("Q1 = %v, want 9", got)
	}
	if got := Quantile(v, 0.5); got != 5 {
		t.Errorf("Q0.5 = %v, want 5", got)
	}
}

func TestMAD(t *testing.T) {
	// For {1,1,2,2,4,6,9}: median 2, abs devs {1,1,0,0,2,4,7}, median dev 1.
	got := MAD([]float64{1, 1, 2, 2, 4, 6, 9})
	if math.Abs(got-1.4826) > 1e-9 {
		t.Fatalf("MAD = %v, want 1.4826", got)
	}
}

func TestScale(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	Scale(c, 2)
	if !EqualApprox(c, []float64{2, 4}, 0) {
		t.Errorf("Scale = %v", c)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, x)
			}
		}
		if len(v) == 0 {
			return true
		}
		prev := Quantile(v, 0)
		for q := 0.1; q <= 1.0001; q += 0.1 {
			cur := Quantile(v, q)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
