package timeseries

import (
	"errors"
	"testing"

	"dbcatcher/internal/mathx"
)

func TestSeriesBasics(t *testing.T) {
	s := New("u/db0/cpu")
	if s.IntervalSeconds != 5 {
		t.Fatalf("default interval = %d, want 5", s.IntervalSeconds)
	}
	s.Append(1, 2, 3)
	if s.Len() != 3 || s.At(1) != 2 {
		t.Fatal("Append/At broken")
	}
	s.StartUnix = 100
	if got := s.TimeAt(2); got != 110 {
		t.Fatalf("TimeAt(2) = %d, want 110", got)
	}
}

func TestWindow(t *testing.T) {
	s := FromValues("x", []float64{0, 1, 2, 3, 4})
	w, err := s.Window(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.EqualApprox(w, []float64{1, 2, 3}, 0) {
		t.Fatalf("Window = %v", w)
	}
	if _, err := s.Window(3, 5); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("expected ErrBadWindow, got %v", err)
	}
	if _, err := s.Window(-1, 2); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("negative start should fail, got %v", err)
	}
}

func TestSlice(t *testing.T) {
	s := FromValues("x", []float64{0, 1, 2, 3})
	s.StartUnix = 1000
	sub, err := s.Slice(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || sub.At(0) != 1 {
		t.Fatalf("Slice values wrong: %v", sub.Values)
	}
	if sub.StartUnix != 1005 {
		t.Fatalf("Slice StartUnix = %d, want 1005", sub.StartUnix)
	}
	if _, err := s.Slice(2, 10); err == nil {
		t.Fatal("out-of-range Slice should fail")
	}
}

func TestUnitSeriesShape(t *testing.T) {
	u := NewUnitSeries("unit0", 3, 5)
	if u.Len() != 0 {
		t.Fatalf("empty unit Len = %d", u.Len())
	}
	for k := 0; k < 3; k++ {
		for d := 0; d < 5; d++ {
			u.Series(k, d).Append(1, 2, 3, 4)
		}
	}
	if u.Len() != 4 {
		t.Fatalf("Len = %d, want 4", u.Len())
	}
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestUnitSeriesValidateCatchesMisalignment(t *testing.T) {
	u := NewUnitSeries("u", 2, 2)
	u.Series(0, 0).Append(1, 2)
	u.Series(0, 1).Append(1, 2)
	u.Series(1, 0).Append(1, 2)
	u.Series(1, 1).Append(1) // short
	if err := u.Validate(); err == nil {
		t.Fatal("Validate should catch misaligned series")
	}
}

func TestUnitSeriesSliceRange(t *testing.T) {
	u := NewUnitSeries("u", 2, 2)
	for k := 0; k < 2; k++ {
		for d := 0; d < 2; d++ {
			u.Series(k, d).Append(float64(k), float64(d), 7, 8)
		}
	}
	sub, err := u.SliceRange(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || sub.Series(0, 0).At(0) != 7 {
		t.Fatalf("SliceRange wrong: %v", sub.Series(0, 0).Values)
	}
	if _, err := u.SliceRange(3, 9); err == nil {
		t.Fatal("out-of-range SliceRange should fail")
	}
}
