package workload

import (
	"testing"

	"dbcatcher/internal/mathx"
)

func collect(g Generator, n int) (reads, writes []float64) {
	reads = make([]float64, n)
	writes = make([]float64, n)
	for i := 0; i < n; i++ {
		d := g.Next()
		reads[i] = d.Read
		writes[i] = d.Write
	}
	return
}

func TestAllProfilesProduceNonNegativeDemand(t *testing.T) {
	for _, p := range []Profile{TencentIrregular, TencentPeriodic, SysbenchI, SysbenchII, TPCCI, TPCCII} {
		g := New(p, mathx.NewRNG(1))
		reads, writes := collect(g, 2000)
		for i := range reads {
			if reads[i] < 0 || writes[i] < 0 {
				t.Fatalf("%v produced negative demand at tick %d", p, i)
			}
		}
		if mathx.Mean(reads) <= 0 {
			t.Fatalf("%v mean read demand is zero", p)
		}
		if mathx.Mean(writes) <= 0 {
			t.Fatalf("%v mean write demand is zero", p)
		}
	}
}

func TestProfileNames(t *testing.T) {
	want := map[Profile]string{
		TencentIrregular: "Tencent I",
		TencentPeriodic:  "Tencent II",
		SysbenchI:        "Sysbench I",
		SysbenchII:       "Sysbench II",
		TPCCI:            "TPCC I",
		TPCCII:           "TPCC II",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), name)
		}
	}
	if Profile(99).String() != "Profile(99)" {
		t.Error("unknown profile String")
	}
}

func TestPeriodicFlag(t *testing.T) {
	if TencentIrregular.Periodic() || SysbenchI.Periodic() || TPCCI.Periodic() {
		t.Error("I profiles must not be periodic")
	}
	if !TencentPeriodic.Periodic() || !SysbenchII.Periodic() || !TPCCII.Periodic() {
		t.Error("II profiles must be periodic")
	}
}

func TestNewPanicsOnUnknownProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Profile(42), mathx.NewRNG(1))
}

func TestDeterministicGivenSeed(t *testing.T) {
	for _, p := range []Profile{TencentIrregular, SysbenchII, TPCCI} {
		a := New(p, mathx.NewRNG(7))
		b := New(p, mathx.NewRNG(7))
		for i := 0; i < 500; i++ {
			da, db := a.Next(), b.Next()
			if da != db {
				t.Fatalf("%v not deterministic at tick %d: %v vs %v", p, i, da, db)
			}
		}
	}
}

func TestTencentPeriodicIsMorePeriodic(t *testing.T) {
	// The periodic variant must carry a much stronger periodic component:
	// compare the max autocorrelation in the plausible period band.
	per, _ := collect(New(TencentPeriodic, mathx.NewRNG(3)), 4000)
	irr, _ := collect(New(TencentIrregular, mathx.NewRNG(3)), 4000)
	peak := func(x []float64) float64 {
		ac := mathx.Autocorrelation(x, 1000)
		best := -1.0
		for lag := 300; lag <= 1000; lag++ {
			if ac[lag] > best {
				best = ac[lag]
			}
		}
		return best
	}
	pp, pi := peak(per), peak(irr)
	if pp < 0.5 {
		t.Fatalf("periodic profile autocorrelation peak = %v, want >= 0.5", pp)
	}
	if pp <= pi {
		t.Fatalf("periodic peak (%v) should exceed irregular peak (%v)", pp, pi)
	}
}

func TestSysbenchThreadScaling(t *testing.T) {
	// More threads must produce more demand (on average), verifying the
	// Table IV parameter has effect.
	rng := mathx.NewRNG(5)
	g := &sysbench{rng: rng, perThread: 100, saturation: 32, writeFrac: 0.25, noiseStd: 0}
	g.cur = SysbenchParams{Tables: 10, Threads: 4, Items: 100000, Minutes: 1}
	low := g.rate()
	g.cur.Threads = 32
	high := g.rate()
	if high <= low {
		t.Fatalf("rate(32 threads)=%v should exceed rate(4)=%v", high, low)
	}
	g.cur.Threads = 64
	higher := g.rate()
	if higher <= high {
		t.Fatal("rate should still grow toward saturation")
	}
	if (higher-high)/high > (high-low)/low {
		t.Fatal("scaling should show diminishing returns")
	}
}

func TestTPCCWriteHeavy(t *testing.T) {
	reads, writes := collect(New(TPCCI, mathx.NewRNG(11)), 1000)
	if mathx.Mean(writes) <= mathx.Mean(reads) {
		t.Fatalf("TPCC should be write-heavy: reads %v writes %v",
			mathx.Mean(reads), mathx.Mean(writes))
	}
	sreads, swrites := collect(New(SysbenchI, mathx.NewRNG(11)), 1000)
	if mathx.Mean(swrites) >= mathx.Mean(sreads) {
		t.Fatal("Sysbench should be read-heavy")
	}
}

func TestSysbenchPeriodicCyclesThreads(t *testing.T) {
	g := newSysbench(mathx.NewRNG(1), true)
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		seen[g.cur.Threads] = true
		g.nextSegment()
	}
	for _, th := range sysbenchIICycle {
		if !seen[th] {
			t.Fatalf("thread level %d never scheduled; seen=%v", th, seen)
		}
	}
	if g.cur.Tables != 10 {
		t.Fatalf("Sysbench II tables = %d, want 10 per Table IV", g.cur.Tables)
	}
}

func TestTPCCWarmupRamps(t *testing.T) {
	g := newTPCC(mathx.NewRNG(2), true)
	g.noiseStd = 0
	first := g.Next()
	var later Demand
	for i := 0; i < 5; i++ {
		later = g.Next()
	}
	if later.Read+later.Write <= first.Read+first.Write {
		t.Fatalf("warmup should ramp up: first=%v later=%v", first, later)
	}
}

func TestTPCCIrregularSweepsGrid(t *testing.T) {
	g := newTPCC(mathx.NewRNG(9), false)
	for i := 0; i < 50; i++ {
		p := g.cur
		if p.Warehouses < 5 || p.Warehouses > 20 {
			t.Fatalf("warehouses %d out of Table IV range", p.Warehouses)
		}
		if p.Threads < 4 || p.Threads > 24 {
			t.Fatalf("threads %d out of Table IV range", p.Threads)
		}
		if p.WarmupMin < 0.5 || p.WarmupMin > 1 || p.Minutes < 0.5 || p.Minutes > 1 {
			t.Fatalf("durations out of Table IV range: %+v", p)
		}
		g.nextSegment()
	}
}

func TestSysbenchIrregularSweepsGrid(t *testing.T) {
	g := newSysbench(mathx.NewRNG(10), false)
	for i := 0; i < 50; i++ {
		p := g.cur
		if p.Tables < 5 || p.Tables > 20 {
			t.Fatalf("tables %d out of range", p.Tables)
		}
		if p.Threads < 4 || p.Threads > 64 {
			t.Fatalf("threads %d out of range", p.Threads)
		}
		if p.Items != 100000 {
			t.Fatalf("items = %d, want 100000", p.Items)
		}
		g.nextSegment()
	}
}

func TestFaultPlanValidate(t *testing.T) {
	good := FaultPlan{DropTickRate: 0.1, DropCellRate: 0.2, PartialRowRate: 0.3, StaleRate: 0.4,
		Silences: []Silence{{DB: 1, Start: 5, Length: 10}}}
	if err := good.Validate(14, 5); err != nil {
		t.Fatal(err)
	}
	if good.IsZero() {
		t.Fatal("plan with faults reports IsZero")
	}
	if !(FaultPlan{Seed: 42}).IsZero() {
		t.Fatal("seed-only plan must be zero")
	}
	bad := []FaultPlan{
		{DropTickRate: -0.1},
		{DropCellRate: 1.1},
		{Silences: []Silence{{DB: 5, Start: 0, Length: 1}}},
		{Silences: []Silence{{DB: 0, Start: -1, Length: 1}}},
	}
	for i, p := range bad {
		if err := p.Validate(14, 5); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	if err := good.Validate(0, 5); err == nil {
		t.Error("zero-KPI shape accepted")
	}
}

func TestSilenceCovers(t *testing.T) {
	s := Silence{DB: 0, Start: 10, Length: 5}
	for _, tc := range []struct {
		t    int
		want bool
	}{{9, false}, {10, true}, {14, true}, {15, false}} {
		if got := s.Covers(tc.t); got != tc.want {
			t.Errorf("Covers(%d) = %v", tc.t, got)
		}
	}
}

func TestInjectorDeterministicAndScheduled(t *testing.T) {
	plan := FaultPlan{Seed: 9, DropTickRate: 0.2, DropCellRate: 0.1, PartialRowRate: 0.1, StaleRate: 0.1,
		Silences: []Silence{{DB: 2, Start: 3, Length: 4}}}
	a, err := plan.NewInjector(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := plan.NewInjector(4, 5)
	sawDrop, sawCut, sawCell, sawStale := false, false, false, false
	for tick := 0; tick < 200; tick++ {
		fa := a.Next()
		fb := b.Next()
		if fa.Dropped != fb.Dropped || fa.Stale != fb.Stale {
			t.Fatalf("tick %d: tick-level divergence", tick)
		}
		sawDrop = sawDrop || fa.Dropped
		sawStale = sawStale || fa.Stale
		for k := 0; k < 4; k++ {
			if fa.RowLen[k] != fb.RowLen[k] {
				t.Fatalf("tick %d: row-length divergence", tick)
			}
			sawCut = sawCut || fa.RowLen[k] < 5
			for d := 0; d < 5; d++ {
				if fa.CellGap[k][d] != fb.CellGap[k][d] {
					t.Fatalf("tick %d: cell divergence", tick)
				}
				sawCell = sawCell || fa.CellGap[k][d]
			}
			// Scheduled silence always gaps its database.
			if tick >= 3 && tick < 7 && !fa.CellGap[k][2] {
				t.Fatalf("tick %d: silence not applied", tick)
			}
		}
	}
	if !sawDrop || !sawCut || !sawCell || !sawStale {
		t.Fatalf("channels unexercised: drop=%v cut=%v cell=%v stale=%v", sawDrop, sawCut, sawCell, sawStale)
	}
}
