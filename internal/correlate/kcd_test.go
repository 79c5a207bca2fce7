package correlate

import (
	"math"
	"testing"
	"testing/quick"

	"dbcatcher/internal/mathx"
)

func sine(n int, period float64, phase float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2*math.Pi*float64(i)/period + phase)
	}
	return out
}

func TestKCDIdenticalSeries(t *testing.T) {
	x := sine(64, 16, 0)
	got := KCD(x, x, DefaultOptions())
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("KCD(x, x) = %v, want 1", got)
	}
}

func TestKCDScaledSeries(t *testing.T) {
	// Min-max normalization makes KCD invariant to affine scaling.
	x := sine(64, 16, 0)
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 100 + 42*x[i]
	}
	got := KCD(x, y, DefaultOptions())
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("KCD of affinely scaled copy = %v, want 1", got)
	}
}

func TestKCDRecoversDelay(t *testing.T) {
	// y is x delayed by 5 points; KCD must find the alignment and report
	// the delay.
	n := 80
	base := sine(n+10, 20, 0)
	x := base[5 : 5+n] // x leads
	y := base[:n]      // y is x delayed by 5
	score, delay := KCDWithDelay(x, y, DefaultOptions())
	if score < 0.999 {
		t.Fatalf("KCD with delay = %v, want ~1", score)
	}
	if delay != -5 {
		t.Fatalf("recovered delay = %d, want -5", delay)
	}
	// Swap roles: now the delay flips sign.
	score2, delay2 := KCDWithDelay(y, x, DefaultOptions())
	if score2 < 0.999 || delay2 != 5 {
		t.Fatalf("swapped: score=%v delay=%d, want ~1 and 5", score2, delay2)
	}
}

func TestKCDBeatsPearsonUnderDelay(t *testing.T) {
	// The motivating claim of §II-D: with a point-in-time delay Pearson
	// degrades but KCD stays high.
	n := 100
	base := sine(n+8, 12, 0)
	x := base[8 : 8+n]
	y := base[:n]
	p := Pearson(mathx.Normalize(x), mathx.Normalize(y))
	k := KCD(x, y, DefaultOptions())
	if k < 0.99 {
		t.Fatalf("KCD = %v, want ~1 despite delay", k)
	}
	if k-p < 0.2 {
		t.Fatalf("KCD (%v) should clearly beat Pearson (%v) under delay", k, p)
	}
}

func TestKCDAnticorrelatedSeries(t *testing.T) {
	x := sine(64, 64, 0)       // single slow cycle
	y := sine(64, 64, math.Pi) // inverted
	got := KCD(x, y, Options{MaxDelayFraction: 0.05, Normalize: true})
	if got > 0 {
		t.Fatalf("KCD of anti-phase series with tiny delay budget = %v, want <= 0", got)
	}
}

func TestKCDConstantRules(t *testing.T) {
	c := []float64{5, 5, 5, 5}
	v := []float64{1, 2, 3, 4}
	if got := KCD(c, mathx.Clone(c), DefaultOptions()); got != 1 {
		t.Fatalf("both constant = %v, want 1", got)
	}
	if got := KCD(c, v, DefaultOptions()); got != 0 {
		t.Fatalf("one constant = %v, want 0", got)
	}
	if got := KCD(nil, nil, DefaultOptions()); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
}

func TestKCDPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KCD([]float64{1}, []float64{1, 2}, DefaultOptions())
}

func TestKCDSymmetricInScoreProperty(t *testing.T) {
	// KCD(x, y) == KCD(y, x): the delay scan is symmetric in sign.
	f := func(seed uint32, nRaw uint8) bool {
		rng := mathx.NewRNG(uint64(seed))
		n := int(nRaw%60) + 4
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.Norm()
			y[i] = rng.Norm()
		}
		a := KCD(x, y, DefaultOptions())
		b := KCD(y, x, DefaultOptions())
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKCDBoundsProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		rng := mathx.NewRNG(uint64(seed))
		n := int(nRaw%80) + 2
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.Range(-10, 10)
			y[i] = rng.Range(-10, 10)
		}
		got := KCD(x, y, DefaultOptions())
		return got >= -1-1e-9 && got <= 1+1e-9 && !math.IsNaN(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKCDMaxDelayZeroEqualsPearsonOnNormalized(t *testing.T) {
	rng := mathx.NewRNG(33)
	x := make([]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = rng.Norm()
		y[i] = rng.Norm()
	}
	k := KCD(x, y, Options{MaxDelayFraction: 1e-9, Normalize: true})
	p := Pearson(mathx.Normalize(x), mathx.Normalize(y))
	if math.Abs(k-p) > 1e-9 {
		t.Fatalf("zero-delay KCD %v != Pearson %v", k, p)
	}
}

func TestOptionsMaxDelay(t *testing.T) {
	o := Options{MaxDelayFraction: 0.5}
	if got := o.maxDelay(20); got != 10 {
		t.Fatalf("maxDelay(20) = %d, want 10", got)
	}
	o = Options{} // default fraction
	if got := o.maxDelay(20); got != 10 {
		t.Fatalf("default maxDelay(20) = %d, want 10", got)
	}
	o = Options{MaxDelayFraction: 2}
	if got := o.maxDelay(4); got != 3 {
		t.Fatalf("clamped maxDelay(4) = %d, want 3", got)
	}
}

func TestMaxDelayPointsCap(t *testing.T) {
	o := Options{MaxDelayFraction: 0.5, MaxDelayPoints: 4}
	if got := o.maxDelay(100); got != 4 {
		t.Fatalf("capped maxDelay(100) = %d, want 4", got)
	}
	if got := o.maxDelay(6); got != 3 {
		t.Fatalf("small-window maxDelay(6) = %d, want 3 (fraction binds)", got)
	}
	if got := DetectionOptions().maxDelay(60); got != 4 {
		t.Fatalf("DetectionOptions maxDelay(60) = %d, want 4", got)
	}
}

func TestDetectionOptionsStillFindSmallDelays(t *testing.T) {
	// Collection delays in the simulator are 0-2 ticks; the capped scan
	// must still recover them.
	n := 80
	base := sine(n+4, 16, 0)
	x := base[2 : 2+n]
	y := base[:n]
	score, delay := KCDWithDelay(x, y, DetectionOptions())
	if score < 0.999 || delay != -2 {
		t.Fatalf("capped scan: score=%v delay=%d, want ~1 and -2", score, delay)
	}
}

func TestRepairGaps(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		in   []float64
		want []float64
	}{
		{"no gaps", []float64{1, 2, 3}, []float64{1, 2, 3}},
		{"interior run", []float64{1, nan, nan, 4}, []float64{1, 2, 3, 4}},
		{"single interior", []float64{0, nan, 2}, []float64{0, 1, 2}},
		{"leading run", []float64{nan, nan, 3, 4}, []float64{3, 3, 3, 4}},
		{"trailing run", []float64{1, 2, nan, nan}, []float64{1, 2, 2, 2}},
		{"all gaps", []float64{nan, nan, nan}, []float64{0, 0, 0}},
		{"two runs", []float64{nan, 2, nan, 4, nan}, []float64{2, 2, 3, 4, 4}},
	}
	for _, tc := range cases {
		got := append([]float64(nil), tc.in...)
		repaired := repairGaps(got)
		if !mathx.EqualApprox(got, tc.want, 1e-12) {
			t.Errorf("%s: repairGaps = %v, want %v", tc.name, got, tc.want)
		}
		hadGap := false
		for _, v := range tc.in {
			if math.IsNaN(v) {
				hadGap = true
			}
		}
		if repaired != hadGap {
			t.Errorf("%s: repaired = %v, want %v", tc.name, repaired, hadGap)
		}
	}
}

// A few holes must not poison the score: KCD over a gapped copy of a clean
// signal stays close to the clean self-correlation.
func TestKCDGapTolerance(t *testing.T) {
	x := sine(64, 16, 0)
	y := append([]float64(nil), x...)
	for _, i := range []int{5, 6, 30, 63} {
		y[i] = math.NaN()
	}
	got := KCD(x, y, DetectionOptions())
	if got < 0.98 {
		t.Fatalf("KCD with 4 repaired holes = %v, want near 1", got)
	}
	// Equal gaps on both sides behave the same.
	x2 := append([]float64(nil), x...)
	x2[10] = math.NaN()
	if s := KCD(x2, x2, DetectionOptions()); math.Abs(s-1) > 1e-9 {
		t.Fatalf("KCD(gapped, same gapped) = %v, want 1", s)
	}
	// All-gap vs signal: one side constant after repair -> uncorrelated.
	allGap := make([]float64, 64)
	for i := range allGap {
		allGap[i] = math.NaN()
	}
	if s := KCD(x, allGap, DetectionOptions()); s != 0 {
		t.Fatalf("KCD(signal, all-gap) = %v, want 0", s)
	}
}

// Gap-free scores must be bit-identical to the pre-gap-tolerance path, and
// the warm scratch path must stay allocation-free even when repairing gaps.
func TestKCDScratchGapRepairAllocFree(t *testing.T) {
	x := sine(60, 20, 0)
	y := append([]float64(nil), sine(60, 20, 0.3)...)
	y[7] = math.NaN()
	y[8] = math.NaN()
	s := NewScratch()
	KCDWithDelayScratch(x, y, DetectionOptions(), s) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		KCDWithDelayScratch(x, y, DetectionOptions(), s)
	})
	if allocs != 0 {
		t.Fatalf("warm gap-repairing KCD allocates %v/op, want 0", allocs)
	}
}
