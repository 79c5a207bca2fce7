package cluster

import (
	"testing"

	"dbcatcher/internal/correlate"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/workload"
)

func simulateTest(t *testing.T, cfg Config) *Unit {
	t.Helper()
	u, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Series.Validate(); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestSimulateShape(t *testing.T) {
	u := simulateTest(t, Config{Name: "u0", Ticks: 200, Seed: 1})
	if u.Series.KPIs != kpi.Count {
		t.Fatalf("KPIs = %d, want %d", u.Series.KPIs, kpi.Count)
	}
	if u.Series.Databases != 5 {
		t.Fatalf("Databases = %d, want default 5", u.Series.Databases)
	}
	if u.Series.Len() != 200 {
		t.Fatalf("Len = %d, want 200", u.Series.Len())
	}
	if u.Roles[0] != Primary || u.Roles[1] != Replica {
		t.Fatal("role assignment wrong")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := Config{Name: "u", Ticks: 300, Seed: 42, Profile: workload.TencentIrregular}
	a := simulateTest(t, cfg)
	b := simulateTest(t, cfg)
	for k := 0; k < kpi.Count; k++ {
		for d := 0; d < 5; d++ {
			if !mathx.EqualApprox(a.Series.Data[k][d].Values, b.Series.Data[k][d].Values, 0) {
				t.Fatalf("KPI %d db %d differs between identical seeds", k, d)
			}
		}
	}
	c := simulateTest(t, Config{Name: "u", Ticks: 300, Seed: 43, Profile: workload.TencentIrregular})
	if mathx.EqualApprox(a.Series.Data[0][0].Values, c.Series.Data[0][0].Values, 0) {
		t.Fatal("different seeds produced identical series")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(Config{Databases: 1, Ticks: 10}); err == nil {
		t.Fatal("1 database should be rejected")
	}
	if _, err := Simulate(Config{Ticks: 0}); err == nil {
		t.Fatal("0 ticks should be rejected")
	}
}

// TestUKPICEmerges is the core fidelity check: on a healthy unit, the same
// KPI correlates across databases (replica-replica for all KPIs, and
// primary-replica for the PRRR-typed KPIs), reproducing Fig. 3.
func TestUKPICEmerges(t *testing.T) {
	u := simulateTest(t, Config{Name: "u", Ticks: 600, Seed: 7, Profile: workload.TencentIrregular})
	opts := correlate.DefaultOptions()
	window := 60
	// Average KCD over several windows to smooth noise.
	avgKCD := func(k, d1, d2 int) float64 {
		var sum float64
		count := 0
		for start := 0; start+window <= 600; start += window {
			w1, _ := u.Series.Data[k][d1].Window(start, window)
			w2, _ := u.Series.Data[k][d2].Window(start, window)
			sum += correlate.KCD(w1, w2, opts)
			count++
		}
		return sum / float64(count)
	}
	for _, k := range kpi.All() {
		rr := avgKCD(int(k), 1, 2) // replica-replica
		if rr < 0.75 {
			t.Errorf("%v: R-R KCD = %.3f, want >= 0.75 (UKPIC)", k, rr)
		}
		pr := avgKCD(int(k), 0, 1) // primary-replica
		if k.Correlation() == kpi.PRRR && pr < 0.7 {
			t.Errorf("%v: P-R KCD = %.3f, want >= 0.7 for PRRR KPI", k, pr)
		}
	}
}

// TestRoleSplitWeakensPRForRRKPIs checks that R-R-typed KPIs correlate
// more strongly replica-replica than primary-replica, which is what makes
// them R-R in Table II.
func TestRoleSplitWeakensPRForRRKPIs(t *testing.T) {
	opts := correlate.DefaultOptions()
	window := 60
	var prSum, rrSum float64
	var n int
	for seed := uint64(0); seed < 5; seed++ {
		u := simulateTest(t, Config{Name: "u", Ticks: 600, Seed: 100 + seed, Profile: workload.TencentIrregular})
		for _, k := range []kpi.KPI{kpi.ComInsert, kpi.ComUpdate, kpi.TransactionsPerSecond} {
			for start := 0; start+window <= 600; start += window {
				p, _ := u.Series.Data[k][0].Window(start, window)
				r1, _ := u.Series.Data[k][1].Window(start, window)
				r2, _ := u.Series.Data[k][2].Window(start, window)
				prSum += correlate.KCD(p, r1, opts)
				rrSum += correlate.KCD(r1, r2, opts)
				n++
			}
		}
	}
	pr, rr := prSum/float64(n), rrSum/float64(n)
	if rr <= pr {
		t.Fatalf("R-R KCD (%.3f) should exceed P-R KCD (%.3f) for R-R-typed KPIs", rr, pr)
	}
}

func TestCPUBounded(t *testing.T) {
	u := simulateTest(t, Config{Name: "u", Ticks: 500, Seed: 3, Profile: workload.TPCCI})
	for d := 0; d < 5; d++ {
		for _, v := range u.Series.Data[kpi.CPUUtilization][d].Values {
			if v < 0 || v > 100 {
				t.Fatalf("CPU out of [0,100]: %v", v)
			}
		}
	}
}

func TestRealCapacityMonotoneTrend(t *testing.T) {
	u := simulateTest(t, Config{Name: "u", Ticks: 400, Seed: 4})
	for d := 0; d < 5; d++ {
		vals := u.Series.Data[kpi.RealCapacity][d].Values
		if vals[len(vals)-1] <= vals[0] {
			t.Fatalf("db %d Real Capacity did not grow: %v -> %v", d, vals[0], vals[len(vals)-1])
		}
	}
}

func TestDelaysWithinBound(t *testing.T) {
	u := simulateTest(t, Config{Name: "u", Ticks: 50, Seed: 5})
	for d, delay := range u.Delays {
		if delay < 0 || delay > maxCollectDelay {
			t.Fatalf("db %d delay %d out of [0,%d]", d, delay, maxCollectDelay)
		}
	}
}

func TestUniformBalancerShares(t *testing.T) {
	b := NewUniformBalancer(4, 0.05, mathx.NewRNG(1))
	for t0 := 0; t0 < 100; t0++ {
		s := b.Shares()
		var sum float64
		for _, v := range s {
			if v <= 0 {
				t.Fatalf("non-positive share %v", v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("shares sum %v != 1", sum)
		}
	}
}

func TestFailoverValidation(t *testing.T) {
	bad := []Config{
		{Ticks: 100, Failover: &Failover{Tick: 50, NewPrimary: 0}},  // target is primary
		{Ticks: 100, Failover: &Failover{Tick: 50, NewPrimary: 9}},  // target out of range
		{Ticks: 100, Failover: &Failover{Tick: 200, NewPrimary: 2}}, // tick out of range
	}
	for i, cfg := range bad {
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestFailoverMovesRoleSplit(t *testing.T) {
	// After failover, the R-R-typed statement counters should decorrelate
	// from replicas on the NEW primary, not the old one.
	cfg := Config{
		Name: "fo", Ticks: 1200, Seed: 77, Profile: workload.TencentIrregular,
		Failover: &Failover{Tick: 600, NewPrimary: 2},
	}
	u := simulateTest(t, cfg)
	opts := correlate.DefaultOptions()
	avg := func(k kpi.KPI, d1, d2, lo, hi int) float64 {
		var sum float64
		n := 0
		for start := lo; start+60 <= hi; start += 60 {
			w1, _ := u.Series.Data[k][d1].Window(start, 60)
			w2, _ := u.Series.Data[k][d2].Window(start, 60)
			sum += correlate.KCD(w1, w2, opts)
			n++
		}
		return sum / float64(n)
	}
	k := kpi.ComInsert
	// Before: db0 is primary -> weak against replicas; db2 is a replica ->
	// strong against other replicas.
	if pr := avg(k, 0, 1, 100, 600); pr > 0.85 {
		t.Errorf("pre-failover P-R score %v unexpectedly high", pr)
	}
	if rr := avg(k, 2, 3, 100, 600); rr < 0.85 {
		t.Errorf("pre-failover R-R score %v unexpectedly low", rr)
	}
	// After (skip a settling margin): roles flip.
	if rr := avg(k, 0, 1, 700, 1200); rr < 0.85 {
		t.Errorf("post-failover old primary should correlate with replicas: %v", rr)
	}
	if pr := avg(k, 2, 3, 700, 1200); pr > 0.85 {
		t.Errorf("post-failover new primary should decorrelate: %v", pr)
	}
}
