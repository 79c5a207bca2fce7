package relearn

import (
	"math"
	"testing"

	"dbcatcher/internal/mathx"
)

func TestPageHinkleyStationaryStreamNeverAlarms(t *testing.T) {
	p := NewPageHinkley(DriftConfig{})
	rng := mathx.NewRNG(3)
	for i := 0; i < 5000; i++ {
		if p.Observe(0.3 + 0.01*rng.Norm()) {
			t.Fatalf("alarm on stationary noise at observation %d", i)
		}
	}
}

func TestPageHinkleyAlarmsOnMeanShift(t *testing.T) {
	p := NewPageHinkley(DriftConfig{})
	rng := mathx.NewRNG(4)
	for i := 0; i < 200; i++ {
		if p.Observe(0.3 + 0.01*rng.Norm()) {
			t.Fatal("premature alarm before the shift")
		}
	}
	alarmed := -1
	for i := 0; i < 200; i++ {
		if p.Observe(0.5 + 0.01*rng.Norm()) {
			alarmed = i
			break
		}
	}
	if alarmed < 0 {
		t.Fatal("no alarm after a 0.2 mean shift over 200 observations")
	}
	// The alarm resets the test: the statistic starts over and the shifted
	// level alone (now the new normal) must not re-alarm immediately.
	if p.Stat() != 0 {
		t.Fatalf("post-alarm statistic %v, want 0", p.Stat())
	}
	for i := 0; i < 100; i++ {
		if p.Observe(0.5+0.01*rng.Norm()) && i < 30 {
			t.Fatalf("re-alarm %d observations after reset, inside warmup", i)
		}
	}
}

func TestPageHinkleyWarmupSuppressesAlarms(t *testing.T) {
	p := NewPageHinkley(DriftConfig{})
	// A violent oscillation would alarm instantly without the warm-up gate.
	for i := 0; i < driftWarmup; i++ {
		if p.Observe(float64(i % 2)) {
			t.Fatalf("alarm during warmup at observation %d", i)
		}
	}
}

func TestPageHinkleyIgnoresNaN(t *testing.T) {
	p := NewPageHinkley(DriftConfig{})
	for i := 0; i < 100; i++ {
		if p.Observe(math.NaN()) {
			t.Fatal("NaN observation alarmed")
		}
	}
	if p.Stat() != 0 {
		t.Fatalf("NaN observations moved the statistic: %v", p.Stat())
	}
	// NaNs must not count toward the warm-up either: a warm-up's worth of
	// real values after a NaN flood is still inside the warm-up window.
	for i := 0; i < driftWarmup; i++ {
		if p.Observe(10) {
			t.Fatal("alarm inside warmup after NaN flood")
		}
	}
}
