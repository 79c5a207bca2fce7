package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"dbcatcher/internal/mathx"
)

// ringValues copies every retained observation, oldest first.
func ringValues(r *Ring) []float64 {
	out := make([]float64, r.Len())
	r.CopyRange(out, 0)
	return out
}

func TestRingFillAndEvict(t *testing.T) {
	r := NewRing(3)
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatal("fresh ring wrong")
	}
	if r.Push(1) || r.Push(2) || r.Push(3) {
		t.Fatal("no eviction expected while filling")
	}
	if !r.Push(4) {
		t.Fatal("push into full ring must evict")
	}
	if got := ringValues(r); !mathx.EqualApprox(got, []float64{2, 3, 4}, 0) {
		t.Fatalf("contents = %v", got)
	}
}

func TestRingAtPanics(t *testing.T) {
	r := NewRing(2)
	r.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.At(1)
}

func TestNewRingPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing(0)
}

func TestRingGapMarking(t *testing.T) {
	r := NewRing(4)
	r.Push(1)
	r.PushGap()
	r.Push(math.NaN()) // NaN auto-marks a gap
	r.Push(2)
	if r.GapCount() != 2 {
		t.Fatalf("GapCount = %d, want 2", r.GapCount())
	}
	if r.IsGap(0) || !r.IsGap(1) || !r.IsGap(2) || r.IsGap(3) {
		t.Fatal("gap flags wrong")
	}
	if !math.IsNaN(r.At(1)) || !math.IsNaN(r.At(2)) {
		t.Fatal("gap slots must read NaN")
	}
	if got := r.CopyRange(make([]float64, 2), 1); got != 2 {
		t.Fatalf("CopyRange over [1,3) counts %d gaps", got)
	}
	if got := r.CopyRange(make([]float64, 1), 0); got != 0 {
		t.Fatalf("CopyRange over [0,1) counts %d gaps", got)
	}
}

func TestRingGapEvictionAccounting(t *testing.T) {
	r := NewRing(2)
	r.PushGap()
	r.PushGap()
	if r.GapCount() != 2 {
		t.Fatalf("GapCount = %d", r.GapCount())
	}
	// Evicting a gap with a value must decrement; evicting a value with a
	// gap must keep the count balanced.
	r.Push(5)
	if r.GapCount() != 1 {
		t.Fatalf("after evicting one gap GapCount = %d", r.GapCount())
	}
	r.Push(6)
	if r.GapCount() != 0 {
		t.Fatalf("after evicting both gaps GapCount = %d", r.GapCount())
	}
	r.PushGap()
	if r.GapCount() != 1 || !r.IsGap(1) || r.IsGap(0) {
		t.Fatal("gap flag misplaced after wraparound")
	}
}

// Eviction boundary: the first evicted tick is exactly Len ticks behind the
// total push count, and the exact-fit window covering every retained point
// is readable.
func TestRingEvictionBoundary(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 9; i++ { // ticks 0..8; 5..8 retained
		r.Push(float64(i))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.At(0) != 5 {
		t.Fatalf("oldest retained = %v, want 5 (tick 4 first-evicted)", r.At(0))
	}
	if got := ringValues(r); !mathx.EqualApprox(got, []float64{5, 6, 7, 8}, 0) {
		t.Fatalf("exact-fit window = %v", got)
	}
	if got := r.CopyRange(make([]float64, r.Len()), 0); got != 0 {
		t.Fatalf("gapless ring reports %d gaps", got)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(3)
	if r.Len() != 0 || r.GapCount() != 0 {
		t.Fatal("empty ring not empty")
	}
	if got := r.CopyRange(nil, 0); got != 0 {
		t.Fatalf("empty range gaps = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IsGap on empty ring must panic")
		}
	}()
	r.IsGap(0)
}

// Property: after any push sequence the ring holds exactly the suffix of the
// pushed values, in order.
func TestRingHoldsSuffixProperty(t *testing.T) {
	f := func(values []float64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		r := NewRing(capacity)
		for _, v := range values {
			r.Push(v)
		}
		want := values
		if len(want) > capacity {
			want = want[len(want)-capacity:]
		}
		return mathx.EqualApprox(ringValues(r), want, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// CopyRange must agree with At and IsGap on every range of a wrapped,
// gap-bearing ring, including ranges that straddle the wrap point.
func TestRingCopyRange(t *testing.T) {
	r := NewRing(5)
	for i := 0; i < 8; i++ { // ticks 3..7 retained, head mid-buffer
		if i%3 == 1 {
			r.PushGap()
			continue
		}
		r.Push(float64(i))
	}
	for start := 0; start <= r.Len(); start++ {
		for n := 0; start+n <= r.Len(); n++ {
			dst := make([]float64, n)
			gaps := r.CopyRange(dst, start)
			want := 0
			for i := start; i < start+n; i++ {
				if r.IsGap(i) {
					want++
				}
			}
			if gaps != want {
				t.Fatalf("CopyRange(%d, %d) gaps = %d, want %d", start, n, gaps, want)
			}
			for i, v := range dst {
				if w := r.At(start + i); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("CopyRange(%d, %d)[%d] = %v, want %v", start, n, i, v, w)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range CopyRange must panic")
		}
	}()
	r.CopyRange(make([]float64, 2), 4)
}
