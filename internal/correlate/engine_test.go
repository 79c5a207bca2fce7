package correlate

import (
	"math"
	"testing"

	"dbcatcher/internal/timeseries"
)

// engineTestUnit builds a unit with enough KPIs to exercise the per-KPI
// sharding: each (KPI, database) series mixes a shared trend with a
// deterministic per-series component.
func engineTestUnit(kpis, dbs, n int) *timeseries.UnitSeries {
	u := timeseries.NewUnitSeries("engine", kpis, dbs)
	for k := 0; k < kpis; k++ {
		for d := 0; d < dbs; d++ {
			for i := 0; i < n; i++ {
				base := math.Sin(2 * math.Pi * float64(i) / float64(10+k))
				jitter := 0.3 * math.Cos(float64(i*(d+1)+k*7)/9)
				u.Series(k, d).Append(base + jitter + float64(d))
			}
		}
	}
	return u
}

func matricesEqual(a, b []*Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].N != b[k].N {
			return false
		}
		for i := 0; i < a[k].N; i++ {
			for j := i + 1; j < a[k].N; j++ {
				// Bit-identical, not approximately equal: the parallel
				// build must perform the exact same float ops.
				if a[k].At(i, j) != b[k].At(i, j) {
					return false
				}
			}
		}
	}
	return true
}

// TestEngineParallelMatchesSerial is the core determinism guarantee: the
// same matrices, bit for bit, at every worker count, on both the scratch
// KCD path and the generic measure path.
func TestEngineParallelMatchesSerial(t *testing.T) {
	u := engineTestUnit(14, 5, 60)
	opts := DetectionOptions()
	ref, err := NewEngine(opts, 1).BuildMatrices(u, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, 100} {
		got, err := NewEngine(opts, workers).BuildMatrices(u, 0, 60, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(ref, got) {
			t.Fatalf("workers=%d diverged from serial build", workers)
		}
	}
	// The measure path (what the seed's BuildMatrices computed) must agree
	// exactly with the scratch path at any concurrency.
	for _, workers := range []int{1, 4} {
		got, err := NewMeasureEngine(KCDMeasure(opts), workers).BuildMatrices(u, 0, 60, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(ref, got) {
			t.Fatalf("measure engine (workers=%d) diverged from scratch engine", workers)
		}
	}
}

// TestEngineParallelAboveCutoff exercises the goroutine fan-out with a unit
// large enough to clear minParallelWork (the detection-sized unit in
// TestEngineParallelMatchesSerial now stays serial by the work cutoff, which
// is invisible by construction — each KPI matrix is filled by one goroutine
// either way). The fan-out must stay bit-identical to the serial reference.
func TestEngineParallelAboveCutoff(t *testing.T) {
	u := engineTestUnit(14, 12, 60) // 14 KPIs x 66 pairs x 60 points > minParallelWork
	if work := 14 * (12 * 11 / 2) * 60; work < minParallelWork {
		t.Fatalf("test unit volume %d no longer clears the cutoff %d", work, minParallelWork)
	}
	opts := DetectionOptions()
	ref, err := NewEngine(opts, 1).BuildMatrices(u, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3, 16} {
		got, err := NewEngine(opts, workers).BuildMatrices(u, 0, 60, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(ref, got) {
			t.Fatalf("workers=%d diverged from serial build above cutoff", workers)
		}
	}
}

func TestEngineReusedAcrossWindows(t *testing.T) {
	u := engineTestUnit(6, 4, 120)
	e := NewEngine(DetectionOptions(), 2)
	for _, start := range []int{0, 20, 40, 60} {
		got, err := e.BuildMatrices(u, start, 40, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEngine(DetectionOptions(), 1).BuildMatrices(u, start, 40, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(want, got) {
			t.Fatalf("window start=%d diverged on reused engine", start)
		}
	}
}

func TestEngineActiveMask(t *testing.T) {
	u := engineTestUnit(4, 4, 60)
	active := []bool{true, false, true, true}
	for _, workers := range []int{1, 3} {
		ms, err := NewEngine(DefaultOptions(), workers).BuildMatrices(u, 0, 60, active)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ms {
			for i := 0; i < 4; i++ {
				if i == 1 {
					continue
				}
				if ms[k].At(i, 1) != 0 {
					t.Fatalf("inactive DB score (%d,1) = %v, want 0", i, ms[k].At(i, 1))
				}
			}
			if ms[k].At(0, 2) == 0 {
				t.Fatal("active pair should still be scored")
			}
		}
	}
}

func TestEngineErrorPropagation(t *testing.T) {
	u := engineTestUnit(8, 3, 30)
	for _, workers := range []int{1, 4} {
		if _, err := NewEngine(DefaultOptions(), workers).BuildMatrices(u, 20, 30, nil); err == nil {
			t.Fatalf("workers=%d: out-of-range window should error", workers)
		}
	}
	if _, err := (&Engine{}).BuildMatrices(u, 0, 30, nil); err == nil {
		t.Fatal("engine with neither KCD nor measure should error")
	}
}

// TestKCDScratchZeroAlloc pins the tentpole's allocation contract: a warm
// scratch makes the direct KCD path allocation-free.
func TestKCDScratchZeroAlloc(t *testing.T) {
	x := sine(60, 12, 0)
	y := sine(60, 12, 2)
	opts := DetectionOptions()
	s := NewScratch()
	KCDWithDelayScratch(x, y, opts, s) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		KCDWithDelayScratch(x, y, opts, s)
	})
	if allocs != 0 {
		t.Fatalf("warm scratch KCD allocates %v times per run, want 0", allocs)
	}
}

// TestEngineSerialBuildLeanAllocs pins the build-level contract: a warm
// serial engine allocates only the output matrices (1 slice header + Q
// matrices x 2 allocations each), also when the window length changes
// under the same warm scratch.
func TestEngineSerialBuildLeanAllocs(t *testing.T) {
	u := engineTestUnit(14, 5, 60)
	e := NewEngine(DetectionOptions(), 1)
	if _, err := e.BuildMatrices(u, 0, 60, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.BuildMatrices(u, 0, 60, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BuildMatrices(u, 20, 40, nil); err != nil {
			t.Fatal(err)
		}
	})
	// Per build, 1 for the []*Matrix and 2 per Matrix (struct + packed
	// scores); the prepared windows and cross sums live in the warm scratch.
	budget := float64(2 * (1 + 2*u.KPIs))
	if allocs > budget {
		t.Fatalf("warm serial build allocates %v times per run, budget %v", allocs, budget)
	}
}
