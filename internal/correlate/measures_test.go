package correlate

import (
	"math"
	"testing"

	"dbcatcher/internal/mathx"
)

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if got := Pearson(x, x); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Pearson(x,x) = %v", got)
	}
	y := []float64{5, 4, 3, 2, 1}
	if got := Pearson(x, y); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Pearson inverted = %v, want -1", got)
	}
	if got := Pearson([]float64{2, 2, 2}, []float64{2, 2, 2}); got != 1 {
		t.Fatalf("both constant = %v, want 1", got)
	}
	if got := Pearson([]float64{2, 2, 2}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("one constant = %v, want 0", got)
	}
}

func TestDTWDistanceIdentity(t *testing.T) {
	x := sine(32, 8, 0)
	if got := DTWDistance(x, x, -1); got != 0 {
		t.Fatalf("DTW(x,x) = %v, want 0", got)
	}
}

func TestDTWDistanceWarpsDelay(t *testing.T) {
	// DTW should align a shifted copy nearly perfectly, while the
	// Euclidean distance stays large.
	base := sine(70, 14, 0)
	x := base[:64]
	y := base[4:68]
	dtw := DTWDistance(x, y, -1)
	var euclid float64
	for i := range x {
		d := x[i] - y[i]
		euclid += d * d
	}
	euclid = math.Sqrt(euclid)
	if dtw > euclid/4 {
		t.Fatalf("DTW %v should be far below Euclidean %v", dtw, euclid)
	}
}

func TestDTWBandLimits(t *testing.T) {
	x := []float64{0, 0, 0, 1}
	y := []float64{1, 0, 0, 0}
	wide := DTWDistance(x, y, -1)
	tight := DTWDistance(x, y, 0)
	if wide > tight {
		t.Fatalf("wider band must not increase distance: wide=%v tight=%v", wide, tight)
	}
}

func TestDTWDifferentLengths(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5}
	y := []float64{0, 2, 4}
	d := DTWDistance(x, y, 1) // radius below length gap must auto-widen
	if math.IsInf(d, 1) {
		t.Fatal("band too narrow for length difference; should auto-widen")
	}
}

func TestDTWSimilarityRange(t *testing.T) {
	x := sine(32, 8, 0)
	if got := DTWSimilarity(x, x, -1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self-similarity = %v, want 1", got)
	}
	rng := mathx.NewRNG(9)
	y := make([]float64, 32)
	for i := range y {
		y[i] = rng.Norm()
	}
	got := DTWSimilarity(x, y, -1)
	if got <= 0 || got >= 1 {
		t.Fatalf("similarity = %v, want in (0, 1)", got)
	}
	if DTWSimilarity(nil, nil, -1) != 0 {
		t.Fatal("empty similarity should be 0")
	}
}

func TestDTWEmpty(t *testing.T) {
	if !math.IsInf(DTWDistance(nil, []float64{1}, -1), 1) {
		t.Fatal("empty DTW distance should be +Inf")
	}
}
