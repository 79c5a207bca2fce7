package correlate

import (
	"math"
	"testing"
	"testing/quick"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/timeseries"
)

func TestMatrixPackedTriangle(t *testing.T) {
	m := NewMatrix(4)
	if len(m.scores) != 6 {
		t.Fatalf("stored pairs = %d, want 6", len(m.scores))
	}
	m.Set(0, 1, 0.1)
	m.Set(2, 3, 0.9)
	m.Set(3, 1, 0.5) // reversed order must hit the same cell
	if m.At(0, 1) != 0.1 || m.At(1, 0) != 0.1 {
		t.Fatal("symmetry broken for (0,1)")
	}
	if m.At(1, 3) != 0.5 {
		t.Fatal("reversed Set not visible")
	}
	if m.At(2, 2) != 1 {
		t.Fatal("diagonal must be 1")
	}
}

func TestMatrixPanicsOnBadIndex(t *testing.T) {
	m := NewMatrix(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(0, 5)
}

// buildTestUnit creates a unit with 2 KPIs and 3 databases where databases
// 0 and 1 share a trend and database 2 diverges on KPI 1.
func buildTestUnit() *timeseries.UnitSeries {
	u := timeseries.NewUnitSeries("u", 2, 3)
	n := 60
	for i := 0; i < n; i++ {
		base := math.Sin(2 * math.Pi * float64(i) / 15)
		for k := 0; k < 2; k++ {
			u.Series(k, 0).Append(base)
			u.Series(k, 1).Append(base * 2)
			if k == 0 {
				u.Series(k, 2).Append(base * 1.5)
			} else {
				// Diverging trend for DB 2 on KPI 1.
				u.Series(k, 2).Append(float64(i))
			}
		}
	}
	return u
}

func TestBuildMatrices(t *testing.T) {
	u := buildTestUnit()
	ms, err := BuildMatrices(u, 0, 60, nil, KCDMeasure(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d matrices, want 2", len(ms))
	}
	// KPI 0: everyone correlates.
	if ms[0].At(0, 1) < 0.99 || ms[0].At(0, 2) < 0.99 {
		t.Fatalf("KPI 0 matrix should be all-correlated: %v %v", ms[0].At(0, 1), ms[0].At(0, 2))
	}
	// KPI 1: DB 2 diverges from both peers while 0-1 stay correlated.
	if ms[1].At(0, 1) < 0.99 {
		t.Fatalf("KPI 1 (0,1) = %v, want ~1", ms[1].At(0, 1))
	}
	if ms[1].At(0, 2) > 0.8 || ms[1].At(1, 2) > 0.8 {
		t.Fatalf("KPI 1 divergent scores too high: %v %v", ms[1].At(0, 2), ms[1].At(1, 2))
	}
}

func TestBuildMatricesInactiveDatabase(t *testing.T) {
	u := buildTestUnit()
	active := []bool{true, true, false}
	ms, err := BuildMatrices(u, 0, 60, active, KCDMeasure(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "If there exists an unused database ... all of its KPIs'
	// correlation scores are set to 0".
	for k := 0; k < 2; k++ {
		if ms[k].At(0, 2) != 0 || ms[k].At(1, 2) != 0 {
			t.Fatalf("inactive DB scores must be 0, got %v %v", ms[k].At(0, 2), ms[k].At(1, 2))
		}
		if ms[k].At(0, 1) == 0 {
			t.Fatal("active pair should still be scored")
		}
	}
}

func TestBuildMatricesErrors(t *testing.T) {
	u := buildTestUnit()
	if _, err := BuildMatrices(u, 0, 60, nil, nil); err == nil {
		t.Fatal("nil measure should error")
	}
	if _, err := BuildMatrices(u, 50, 60, nil, PearsonMeasure()); err == nil {
		t.Fatal("out-of-range window should error")
	}
}

func TestMeasureAdapters(t *testing.T) {
	x := sine(40, 10, 0)
	y := mathx.Clone(x)
	for name, m := range map[string]Measure{
		"kcd":     KCDMeasure(DefaultOptions()),
		"pearson": PearsonMeasure(),
		"dtw":     DTWMeasure(-1),
	} {
		if got := m(x, y); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s self-score = %v, want 1", name, got)
		}
	}
}

// Property: Set/At are symmetric and never disturb other cells.
func TestMatrixSymmetryProperty(t *testing.T) {
	f := func(nRaw uint8, iRaw, jRaw uint8, v float64) bool {
		n := int(nRaw%6) + 2
		i := int(iRaw) % n
		j := int(jRaw) % n
		if i == j {
			j = (j + 1) % n
		}
		m := NewMatrix(n)
		m.Set(i, j, v)
		if m.At(i, j) != v || m.At(j, i) != v {
			return false
		}
		// All other pairs stay zero.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (a == i && b == j) || (a == j && b == i) {
					continue
				}
				if m.At(a, b) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
