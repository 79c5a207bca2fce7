package detect

import (
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

func testUnit(t *testing.T, ticks int, seed uint64, fluct float64) *cluster.Unit {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: ticks, Seed: seed,
		Profile: workload.TencentIrregular, FluctuationRate: fluct,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func defaultConfig() Config {
	return Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Flex:       window.DefaultFlexConfig(),
	}
}

func TestRunHealthyUnit(t *testing.T) {
	u := testUnit(t, 400, 1, 1e-9)
	verdicts, timing, err := Run(u.Series, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) == 0 {
		t.Fatal("no verdicts")
	}
	abnormal := 0
	for _, v := range verdicts {
		if v.Abnormal {
			abnormal++
		}
	}
	if frac := float64(abnormal) / float64(len(verdicts)); frac > 0.15 {
		t.Fatalf("healthy unit flagged abnormal in %.0f%% of windows", frac*100)
	}
	if timing.Correlation <= 0 {
		t.Fatal("correlation timing not recorded")
	}
	// Windows tile the series without overlap.
	cursor := 0
	for _, v := range verdicts {
		if v.Start != cursor {
			t.Fatalf("window start %d, expected %d", v.Start, cursor)
		}
		cursor += v.Size
	}
}

func TestRunDetectsInjectedAnomaly(t *testing.T) {
	u := testUnit(t, 400, 2, 1e-9)
	events := []anomaly.Event{
		{Type: anomaly.Stall, DB: 2, Start: 160, Length: 40, Magnitude: 0.9},
	}
	labels, err := anomaly.Inject(u, events, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	verdicts, _, err := Run(u.Series, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hit := false
	for _, v := range verdicts {
		overlap := v.Start < 200 && v.Start+v.Size > 160
		if overlap && v.Abnormal {
			hit = true
			if v.AbnormalDB != 2 {
				t.Errorf("flagged db %d, want 2", v.AbnormalDB)
			}
		}
	}
	if !hit {
		t.Fatal("stall not detected")
	}
	c, err := Evaluate(verdicts, labels)
	if err != nil {
		t.Fatal(err)
	}
	if c.Recall() == 0 {
		t.Fatalf("zero recall: %v", c)
	}
}

func TestFlexibleWindowExpandsOnFluctuation(t *testing.T) {
	// With heavy benign fluctuations, at least some rounds should expand
	// and ultimately resolve; total expansions > 0 while most verdicts
	// stay healthy.
	u := testUnit(t, 800, 4, 0.05)
	verdicts, _, err := Run(u.Series, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	expansions, size := 0, 0
	for _, v := range verdicts {
		expansions += v.Expansions
		size += v.Size
	}
	if expansions == 0 {
		t.Fatal("no window expansions despite fluctuations")
	}
	// §III-C: only a small number of windows expand, so the average
	// window stays near the initial size.
	if avg := float64(size) / float64(len(verdicts)); avg > 45 {
		t.Fatalf("average window %v too large", avg)
	}
}

func TestEvaluateWindows(t *testing.T) {
	labels := anomaly.NewLabels(100)
	for tk := 40; tk < 50; tk++ {
		labels.Point[tk] = true
	}
	verdicts := []Verdict{
		{Start: 0, Size: 20, Abnormal: false},  // TN
		{Start: 20, Size: 20, Abnormal: true},  // FP
		{Start: 40, Size: 20, Abnormal: true},  // TP
		{Start: 60, Size: 20, Abnormal: false}, // TN
	}
	c, err := Evaluate(verdicts, labels)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 1 || c.FP != 1 || c.TN != 2 || c.FN != 0 {
		t.Fatalf("confusion = %+v", c)
	}
	bad := []Verdict{{Start: 90, Size: 20, Abnormal: false}}
	if _, err := Evaluate(bad, labels); err == nil {
		t.Fatal("out-of-range verdict should error")
	}
}

func TestDiagnosisAccuracy(t *testing.T) {
	labels := anomaly.NewLabels(60)
	for tk := 10; tk < 20; tk++ {
		labels.Point[tk] = true
		labels.DB[tk] = 3
	}
	verdicts := []Verdict{
		{Start: 0, Size: 30, Abnormal: true, AbnormalDB: 3},  // correct
		{Start: 30, Size: 30, Abnormal: true, AbnormalDB: 1}, // FP, ignored
	}
	if got := DiagnosisAccuracy(verdicts, labels); got != 1 {
		t.Fatalf("accuracy = %v, want 1", got)
	}
	verdicts[0].AbnormalDB = 2
	if got := DiagnosisAccuracy(verdicts, labels); got != 0 {
		t.Fatalf("accuracy = %v, want 0", got)
	}
	if got := DiagnosisAccuracy(nil, labels); got != 0 {
		t.Fatal("no verdicts should give 0")
	}
}

func TestCachedProvider(t *testing.T) {
	u := testUnit(t, 200, 5, 1e-9)
	p := NewCachedProvider(NewProvider(u.Series, nil, nil))
	m1, err := p.Matrices(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.Matrices(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hits != 1 || p.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", p.Hits, p.Misses)
	}
	if &m1[0] != &m2[0] {
		t.Fatal("cache did not return the same matrices")
	}
	if _, err := p.Matrices(190, 20); err == nil {
		t.Fatal("out-of-range window should error through cache")
	}
	ticks, kpis, dbs := p.Shape()
	if ticks != 200 || kpis != kpi.Count || dbs != 5 {
		t.Fatalf("shape = %d %d %d", ticks, kpis, dbs)
	}
}

// countingProvider fabricates tiny matrices and counts computations, so the
// cache tests need no series behind them.
type countingProvider struct {
	computes int
}

func (c *countingProvider) Matrices(start, size int) ([]*correlate.Matrix, error) {
	c.computes++
	m := correlate.NewMatrix(2)
	m.Set(0, 1, float64(start)+float64(size)/1000)
	return []*correlate.Matrix{m}, nil
}

func (c *countingProvider) Shape() (int, int, int) { return 1000, 1, 2 }

func TestCachedProviderCapHolds(t *testing.T) {
	inner := &countingProvider{}
	p := NewCachedProviderSize(inner, 8)
	for start := 0; start < 100; start++ {
		if _, err := p.Matrices(start, 20); err != nil {
			t.Fatal(err)
		}
		if p.Len() > 8 {
			t.Fatalf("cache grew to %d entries, cap is 8", p.Len())
		}
	}
	if p.Len() != 8 {
		t.Fatalf("cache holds %d entries after 100 distinct windows, want 8", p.Len())
	}
	// Eviction is oldest-first: the most recent 8 windows are resident.
	before := inner.computes
	for start := 92; start < 100; start++ {
		if _, err := p.Matrices(start, 20); err != nil {
			t.Fatal(err)
		}
	}
	if inner.computes != before {
		t.Fatalf("recent windows recomputed: %d -> %d", before, inner.computes)
	}
	// The oldest window was evicted and must recompute.
	if _, err := p.Matrices(0, 20); err != nil {
		t.Fatal(err)
	}
	if inner.computes != before+1 {
		t.Fatalf("evicted window not recomputed (computes %d, want %d)", inner.computes, before+1)
	}
	if p.Misses != 101 || p.Hits != 8 {
		t.Fatalf("hits=%d misses=%d, want 8/101", p.Hits, p.Misses)
	}
}

func TestCachedProviderDefaultCap(t *testing.T) {
	p := NewCachedProvider(&countingProvider{})
	for start := 0; start < DefaultCacheEntries+50; start++ {
		if _, err := p.Matrices(start, 10); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != DefaultCacheEntries {
		t.Fatalf("cache holds %d entries, want the %d default cap", p.Len(), DefaultCacheEntries)
	}
}

func TestInactiveDatabaseNeverFlagged(t *testing.T) {
	u := testUnit(t, 300, 6, 1e-9)
	// Make db 4 garbage: if it participated it would trip detection.
	for k := 0; k < kpi.Count; k++ {
		vals := u.Series.Data[k][4].Values
		for i := range vals {
			vals[i] = float64(i % 7)
		}
	}
	cfg := defaultConfig()
	cfg.Active = []bool{true, true, true, true, false}
	verdicts, _, err := Run(u.Series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if v.States[4] != window.Healthy {
			t.Fatalf("inactive database was judged %v", v.States[4])
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	u := testUnit(t, 100, 7, 1e-9)
	cfg := defaultConfig()
	cfg.Thresholds.Alpha = cfg.Thresholds.Alpha[:3] // wrong KPI count
	if _, _, err := Run(u.Series, cfg); err == nil {
		t.Fatal("invalid thresholds should error")
	}
	cfg = defaultConfig()
	cfg.Flex = window.FlexConfig{Initial: 30, Max: 10}
	if _, _, err := Run(u.Series, cfg); err == nil {
		t.Fatal("invalid flex config should error")
	}
}

func TestObservablePeersNotDraggedAbnormal(t *testing.T) {
	// When one database is outright abnormal, a peer that merely sat in
	// Observable must resolve Healthy, not Abnormal.
	u := testUnit(t, 200, 8, 1e-9)
	events := []anomaly.Event{{Type: anomaly.Stall, DB: 1, Start: 60, Length: 60, Magnitude: 0.95}}
	if _, err := anomaly.Inject(u, events, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	verdicts, _, err := Run(u.Series, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if !v.Abnormal {
			continue
		}
		flagged := 0
		for _, s := range v.States {
			if s == window.Abnormal {
				flagged++
			}
		}
		if flagged > 2 {
			t.Fatalf("too many databases flagged in one verdict: %v", v.States)
		}
	}
}

// Once the window budget is exhausted, a database still observable
// resolves Abnormal under a config built field by field; without
// exhaustion it resolves Healthy.
func TestFinalizeStatesExhaustedIsAbnormal(t *testing.T) {
	flex := window.FlexConfig{Initial: 4, Max: 8}
	states := []window.State{window.Healthy, window.Observable, window.Abnormal}
	cases := []struct {
		exhausted bool
		want      []window.State
	}{
		{true, []window.State{window.Healthy, window.Abnormal, window.Abnormal}},
		{false, []window.State{window.Healthy, window.Healthy, window.Abnormal}},
	}
	for _, c := range cases {
		got := FinalizeStates(states, flex, c.exhausted)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("exhausted=%v: states %v, want %v", c.exhausted, got, c.want)
				break
			}
		}
	}
}
