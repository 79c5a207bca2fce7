package monitor

import (
	"math"
	"sync"
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

func TestProcessorIngestAndWindow(t *testing.T) {
	p := NewProcessor(2, 3, 10)
	if k, d := p.Shape(); k != 2 || d != 3 {
		t.Fatal("shape wrong")
	}
	for i := 0; i < 5; i++ {
		sample := [][]float64{
			{float64(i), float64(i + 10), float64(i + 20)},
			{float64(i + 30), float64(i + 40), float64(i + 50)},
		}
		if _, err := p.IngestDegraded(sample, nil); err != nil {
			t.Fatal(err)
		}
	}
	if p.Ticks() != 5 {
		t.Fatalf("Ticks = %d", p.Ticks())
	}
	u, err := p.Window(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if u.Series(0, 0).At(0) != 1 || u.Series(1, 2).At(2) != 53 {
		t.Fatalf("window values wrong: %v / %v", u.Series(0, 0).Values, u.Series(1, 2).Values)
	}
}

func TestProcessorWindowErrors(t *testing.T) {
	p := NewProcessor(1, 1, 4)
	for i := 0; i < 8; i++ {
		p.IngestDegraded([][]float64{{float64(i)}}, nil)
	}
	// Only ticks 4..7 remain.
	if _, err := p.Window(2, 3); err == nil {
		t.Fatal("evicted window should fail")
	}
	if _, err := p.Window(6, 5); err == nil {
		t.Fatal("future window should fail")
	}
	if _, err := p.Window(5, 0); err == nil {
		t.Fatal("zero size should fail")
	}
	u, err := p.Window(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if u.Series(0, 0).At(0) != 4 {
		t.Fatal("oldest retained value wrong")
	}
}

// feedOnline streams a simulated unit through the online judge and
// collects verdicts.
func feedOnline(t *testing.T, o *Online, u *cluster.Unit) []*Verdict {
	t.Helper()
	n := u.Series.Len()
	var verdicts []*Verdict
	sample := make([][]float64, u.Series.KPIs)
	for k := range sample {
		sample[k] = make([]float64, u.Series.Databases)
	}
	for tick := 0; tick < n; tick++ {
		for k := 0; k < u.Series.KPIs; k++ {
			for d := 0; d < u.Series.Databases; d++ {
				sample[k][d] = u.Series.Data[k][d].At(tick)
			}
		}
		v, err := o.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			verdicts = append(verdicts, v)
		}
	}
	return verdicts
}

func TestOnlineMatchesOfflineOnHealthyUnit(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 400, Seed: 31, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := detect.Config{Thresholds: window.DefaultThresholds(kpi.Count)}
	o, err := NewOnline(cfg, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	online := feedOnline(t, o, u)
	offline, _, err := detect.Run(u.Series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(online) != len(offline) {
		t.Fatalf("online %d verdicts vs offline %d", len(online), len(offline))
	}
	for i := range online {
		if online[i].Start != offline[i].Start || online[i].Size != offline[i].Size {
			t.Fatalf("verdict %d window mismatch: online [%d,%d) offline [%d,%d)",
				i, online[i].Start, online[i].Size, offline[i].Start, offline[i].Size)
		}
		if online[i].Abnormal != offline[i].Abnormal {
			t.Fatalf("verdict %d disagreement at window %d", i, online[i].Start)
		}
	}
}

func TestOnlineDetectsAnomalyAsItStreams(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 300, Seed: 32, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := anomaly.Inject(u, []anomaly.Event{
		{Type: anomaly.Stall, DB: 3, Start: 120, Length: 40, Magnitude: 0.9},
	}, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(detect.Config{Thresholds: window.DefaultThresholds(kpi.Count)}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := feedOnline(t, o, u)
	found := false
	for _, v := range verdicts {
		if v.Abnormal && v.Start < 160 && v.Start+v.Size > 120 {
			found = true
			if v.AbnormalDB != 3 {
				t.Errorf("flagged db %d, want 3", v.AbnormalDB)
			}
			// The verdict must land promptly: at the tick the window
			// completed, not later.
			if v.Tick != v.Start+v.Size {
				t.Errorf("verdict tick %d, want %d", v.Tick, v.Start+v.Size)
			}
		}
	}
	if !found {
		t.Fatal("online judge missed the stall")
	}
}

func TestOnlineSetThresholds(t *testing.T) {
	o, err := NewOnline(detect.Config{Thresholds: window.DefaultThresholds(kpi.Count)}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	th := o.Thresholds()
	th.Alpha[0] = 0.77
	if err := o.SetThresholds(th); err != nil {
		t.Fatal(err)
	}
	if o.Thresholds().Alpha[0] != 0.77 {
		t.Fatal("thresholds not swapped")
	}
	bad := th.Clone()
	bad.Alpha = bad.Alpha[:2]
	if err := o.SetThresholds(bad); err == nil {
		t.Fatal("invalid thresholds should be rejected")
	}
}

func TestNewOnlineValidation(t *testing.T) {
	if _, err := NewOnline(detect.Config{Thresholds: window.DefaultThresholds(3)}, kpi.Count, 5); err == nil {
		t.Fatal("threshold/KPI mismatch should fail")
	}
	bad := detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Flex:       window.FlexConfig{Initial: 50, Max: 10},
	}
	if _, err := NewOnline(bad, kpi.Count, 5); err == nil {
		t.Fatal("invalid flex should fail")
	}
}

func TestNewProcessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProcessor(0, 5, 10)
}

func TestOnlineSetPrimaryFollowsFailover(t *testing.T) {
	o, err := NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
	}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetPrimary(3); err != nil {
		t.Fatal(err)
	}
	if err := o.SetPrimary(7); err == nil {
		t.Fatal("out-of-range primary should be rejected")
	}
	if err := o.SetPrimary(-1); err == nil {
		t.Fatal("negative primary should be rejected")
	}
}

func TestOnlineActiveMaskExcludesDatabase(t *testing.T) {
	// A garbage database is ignored once deactivated, even while its data
	// keeps flowing.
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 200, Seed: 41, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wreck db4 completely.
	for k := 0; k < kpi.Count; k++ {
		vals := u.Series.Data[k][4].Values
		for i := range vals {
			vals[i] = float64((i*7 + k) % 13)
		}
	}
	cfg := detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Active:     []bool{true, true, true, true, false},
	}
	o, err := NewOnline(cfg, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range feedOnline(t, o, u) {
		if v.States[4] == window.Abnormal {
			t.Fatal("deactivated database was judged abnormal")
		}
	}
	// Validation.
	cfg.Active = []bool{true}
	if _, err := NewOnline(cfg, kpi.Count, 5); err == nil {
		t.Fatal("wrong-length mask should be rejected")
	}
}

// --- Degraded-mode ingestion and self-healing tests ---

func TestProcessorWindowBoundaries(t *testing.T) {
	// Empty processor: nothing collected yet.
	p := NewProcessor(1, 1, 4)
	if _, err := p.Window(0, 1); err == nil {
		t.Fatal("window on empty processor should fail")
	}
	for i := 0; i < 9; i++ { // ticks 0..8, capacity 4: ticks 5..8 retained
		if _, err := p.IngestDegraded([][]float64{{float64(i)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Oldest(); got != 5 {
		t.Fatalf("Oldest = %d, want 5", got)
	}
	// First-evicted tick: start one below oldest must fail.
	if _, err := p.Window(4, 2); err == nil {
		t.Fatal("window starting at first-evicted tick should fail")
	}
	// Exact fit: the full retained range is readable.
	u, err := p.Window(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if u.Series(0, 0).At(0) != 5 || u.Series(0, 0).At(3) != 8 {
		t.Fatalf("exact-fit window = %v", u.Series(0, 0).Values)
	}
	// One past the newest tick must fail.
	if _, err := p.Window(6, 4); err == nil {
		t.Fatal("window past newest tick should fail")
	}
}

func TestProcessorIngestDegraded(t *testing.T) {
	p := NewProcessor(3, 2, 8)
	silent := make([]bool, 2)

	// Complete tick: no gaps, nobody silent.
	gaps, err := p.IngestDegraded([][]float64{{1, 2}, {3, 4}, {5, 6}}, silent)
	if err != nil || gaps != 0 {
		t.Fatalf("complete tick: gaps=%d err=%v", gaps, err)
	}
	if silent[0] || silent[1] {
		t.Fatal("complete tick marked a database silent")
	}

	// Partial delivery: KPI row 1 truncated to one cell, KPI row 2 missing,
	// and a NaN cell on KPI 0.
	gaps, err = p.IngestDegraded([][]float64{{math.NaN(), 20}, {30}}, silent)
	if err != nil {
		t.Fatal(err)
	}
	if gaps != 4 { // (0,0) NaN, (1,1) truncated, (2,0) and (2,1) missing row
		t.Fatalf("partial tick gaps = %d, want 4", gaps)
	}
	if silent[0] || silent[1] {
		t.Fatal("databases with some usable cells marked silent")
	}

	// Wholly-missed tick.
	gaps, err = p.IngestDegraded(nil, silent)
	if err != nil || gaps != 6 {
		t.Fatalf("missed tick: gaps=%d err=%v", gaps, err)
	}
	if !silent[0] || !silent[1] {
		t.Fatal("missed tick must mark every database silent")
	}
	if gapCells, missed := p.GapStats(); gapCells != 10 || missed != 1 {
		t.Fatalf("GapStats = (%d, %d), want (10, 1)", gapCells, missed)
	}
	if p.Ticks() != 3 {
		t.Fatalf("Ticks = %d", p.Ticks())
	}

	// Window stats see the damage.
	u, stats, err := p.WindowWithStats(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gaps != 10 {
		t.Fatalf("window gaps = %d, want 10", stats.Gaps)
	}
	if stats.PerDB[0] != 5 || stats.PerDB[1] != 5 {
		t.Fatalf("per-db gaps = %v", stats.PerDB)
	}
	if !math.IsNaN(u.Series(2, 0).At(1)) {
		t.Fatal("gap cell must materialize as NaN")
	}
	if u.Series(0, 1).At(1) != 20 {
		t.Fatal("delivered cell lost")
	}

	// Shape excess is still an error, not data loss.
	if _, err := p.IngestDegraded([][]float64{{1, 2, 3}}, silent); err == nil {
		t.Fatal("over-long row must be rejected")
	}
	if _, err := p.IngestDegraded([][]float64{{1}, {1}, {1}, {1}}, silent); err == nil {
		t.Fatal("too many KPI rows must be rejected")
	}
	if _, err := p.IngestDegraded(nil, make([]bool, 5)); err == nil {
		t.Fatal("wrong-length silent scratch must be rejected")
	}
}

// scriptedMeasure returns level-2 scores for windows whose first value is
// below 0.5 and level-3 scores otherwise, letting tests force Observable
// rounds deterministically.
func scriptedMeasure(x, _ []float64) float64 {
	if x[0] < 0.5 {
		return 0.5 // inside [alpha-theta, alpha) for the default 0.65/0.25
	}
	return 0.9
}

// The ring capacity derived from the flex config must survive a round that
// expands all the way to the maximum window, with no eviction and no slack.
func TestOnlineCapacityCoversMaxExpansion(t *testing.T) {
	flex := window.FlexConfig{Initial: 4, Max: 12}
	o, err := NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(2),
		Flex:       flex,
		Measure:    scriptedMeasure,
		Workers:    1,
	}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Processor().rings[0][0].Cap(); got != flex.MaxWindow() {
		t.Fatalf("ring capacity = %d, want MaxWindow %d", got, flex.MaxWindow())
	}
	// KPI 0 windows start at 0 (level-2 scores) -> every db observable ->
	// the window expands 4 -> 8 -> 12 and exhausts at the derived maximum.
	sample := [][]float64{{0, 0, 0}, {1, 1, 1}}
	var verdicts []*Verdict
	for tick := 0; tick < 24; tick++ {
		v, err := o.Push(sample)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if v != nil {
			verdicts = append(verdicts, v)
		}
	}
	if len(verdicts) != 2 {
		t.Fatalf("verdicts = %d, want 2 full-expansion rounds in 24 ticks", len(verdicts))
	}
	for i, v := range verdicts {
		if v.Size != flex.MaxWindow() || v.Expansions != 2 {
			t.Fatalf("verdict %d: size=%d expansions=%d, want %d/2", i, v.Size, v.Expansions, flex.MaxWindow())
		}
		if !v.Abnormal || v.Health != detect.HealthOK {
			t.Fatalf("verdict %d: exhaust state lost (%+v)", i, v.Verdict)
		}
	}
	if verdicts[1].Start != flex.MaxWindow() {
		t.Fatalf("round 2 start = %d", verdicts[1].Start)
	}
}

// A collector outage that outruns the rings must not wedge Push: the lost
// range is skipped once and detection resynchronizes.
func TestOnlineResyncAfterEviction(t *testing.T) {
	o, err := NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(2),
		Workers:    1,
	}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sample := [][]float64{{1, 1}, {2, 2}}
	for i := 0; i < 5; i++ {
		if _, err := o.Push(sample); err != nil {
			t.Fatal(err)
		}
	}
	// Bypass Push (a restarted judge, or ingestion behind its back) until
	// tick 0 is long evicted.
	for i := 0; i < 100; i++ {
		if _, err := o.Processor().IngestDegraded(sample, nil); err != nil {
			t.Fatal(err)
		}
	}
	cap := o.Processor().rings[0][0].Cap()
	v, err := o.Push(sample)
	if err != nil {
		t.Fatalf("push after eviction errored: %v", err)
	}
	if v == nil || v.Health != detect.HealthSkipped {
		t.Fatalf("expected a skipped verdict, got %+v", v)
	}
	wantSkip := 106 - cap + 1 // one past the oldest retained tick after 106 ingests
	if v.Start != 0 || v.Size != wantSkip {
		t.Fatalf("skipped range [%d, %d), want [0, %d)", v.Start, v.Start+v.Size, wantSkip)
	}
	// The judge must now make progress without ever erroring again.
	var judged int
	for i := 0; i < 100; i++ {
		v, err := o.Push(sample)
		if err != nil {
			t.Fatalf("post-resync push %d errored: %v", i, err)
		}
		if v != nil {
			if v.Health == detect.HealthSkipped {
				t.Fatalf("second skip without a new outage: %+v", v)
			}
			judged++
		}
	}
	if judged == 0 {
		t.Fatal("no judged rounds after resync")
	}
	if h := o.Health(); h.SkippedRounds != 1 {
		t.Fatalf("SkippedRounds = %d, want 1", h.SkippedRounds)
	}
}

// Mutators must be safe against a concurrent feeder (run under -race).
func TestOnlineMutatorsRaceWithPush(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 300, Seed: 77, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Workers:    1,
	}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		th := o.Thresholds()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			th.Theta = 0.2 + 0.001*float64(i%50)
			if err := o.SetThresholds(th); err != nil {
				t.Error(err)
				return
			}
			_ = o.Thresholds()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := o.SetPrimary(i % 5); err != nil {
				t.Error(err)
				return
			}
			_ = o.Health()
		}
	}()
	feedOnline(t, o, u)
	close(done)
	wg.Wait()
}
