package mathx

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should produce same stream")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(4)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bin %d frequency %v too far from 0.1", b, frac)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n<=0")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(5)
	x := make([]float64, 200000)
	for i := range x {
		x[i] = r.Norm()
	}
	if m := Mean(x); math.Abs(m) > 0.02 {
		t.Fatalf("normal mean = %v", m)
	}
	if s := Std(x); math.Abs(s-1) > 0.02 {
		t.Fatalf("normal std = %v", s)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSample(t *testing.T) {
	r := NewRNG(9)
	s := r.Sample(10, 4)
	if len(s) != 4 {
		t.Fatalf("Sample len = %d", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
}

func TestRange(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(11)
	a := r.Split(1)
	b := r.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collide %d times", same)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(12)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}
