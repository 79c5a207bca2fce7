package monitor

import (
	"math"
	"strings"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// feedCollector streams a unit through the online judge via a lossy
// collector, collecting verdicts and every error (with the tick it
// occurred at). A non-nil check sees each verdict right after the push
// that produced it, while its window is still in the rings.
func feedCollector(t *testing.T, o *Online, u *cluster.Unit, plan workload.FaultPlan, check func(*Verdict)) ([]*Verdict, []error) {
	t.Helper()
	c, err := cluster.NewCollector(u.Series, plan)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []*Verdict
	var errs []error
	for {
		sample, ok := c.Next()
		if !ok {
			break
		}
		v, err := o.Push(sample)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if v != nil {
			if check != nil {
				check(v)
			}
			verdicts = append(verdicts, v)
		}
	}
	return verdicts, errs
}

func newDegradedOnline(t *testing.T) *Online {
	t.Helper()
	o, err := NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Workers:    1,
	}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// The end-to-end degraded-mode scenario: a lossy collector drops whole
// ticks, loses individual cells, and silences one database far beyond the
// deactivation budget. The detector must keep advancing (no repeated
// eviction errors), downgrade damaged rounds, bench the silent database,
// and bring it back once its collection recovers.
func TestOnlineEndToEndCollectorFaults(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 600, Seed: 91, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := newDegradedOnline(t)
	// The budget, 0.5 over W_M = 60 ticks: a database silent for more
	// than 30 of the last 60 ticks is benched; 20 clean ticks re-activate
	// it. db3 goes silent for 120 ticks (4x the budget).
	plan := workload.FaultPlan{
		Seed:         13,
		DropTickRate: 0.02,
		DropCellRate: 0.01,
		Silences:     []workload.Silence{{DB: 3, Start: 200, Length: 120}},
	}
	verdicts, errs := feedCollector(t, o, u, plan, nil)
	if len(errs) > 0 {
		t.Fatalf("push errors under faults: %d, first: %v", len(errs), errs[0])
	}
	if len(verdicts) == 0 {
		t.Fatal("no verdicts under faults")
	}

	degraded, skipped := 0, 0
	misjudgedSilentDB := 0
	for _, v := range verdicts {
		switch v.Health {
		case detect.HealthDegraded:
			degraded++
		case detect.HealthSkipped:
			skipped++
		}
		// Once db3 has been benched, a silent database must not be blamed:
		// windows fully inside the deactivated span read healthy for it.
		if v.Start >= 260 && v.Start+v.Size <= 320 && len(v.States) == 5 &&
			v.States[3] == window.Abnormal {
			misjudgedSilentDB++
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded verdicts despite gap faults")
	}
	if misjudgedSilentDB > 0 {
		t.Fatalf("%d verdicts blamed the benched silent database", misjudgedSilentDB)
	}

	h := o.Health()
	if h.GapCells == 0 || h.MissedTicks == 0 {
		t.Fatalf("gap accounting empty: %+v", h)
	}
	// Exactly one bench/recover cycle for the single scheduled silence:
	// re-activation waits for the rolling budget to clear, so the overlay
	// must not flap while the outage ages out of the window.
	if h.Deactivations != 1 {
		t.Fatalf("want exactly 1 deactivation for one silence, got %+v", h)
	}
	if h.Reactivations != 1 {
		t.Fatalf("want exactly 1 re-activation, got %+v", h)
	}
	for d, down := range h.AutoDeactivated {
		if down {
			t.Fatalf("db%d still benched at end of run: %+v", d, h)
		}
	}
	if h.DegradedVerdicts != degraded {
		t.Fatalf("degraded counter %d != %d observed", h.DegradedVerdicts, degraded)
	}
}

// The judge copies every round into one window it reuses across rounds
// and sizes: each verdict's gap count and mean correlation must equal a
// recomputation from a freshly materialized window through a fresh engine
// under the same mask, so a longer earlier window's values can never leak
// into a shorter later one. The run expands to 40 and 60 points, drops
// ticks and cells, and benches a silent database.
func TestOnlineReusedWindowMatchesFresh(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 600, Seed: 92, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := newDegradedOnline(t)
	plan := workload.FaultPlan{
		Seed:         13,
		DropTickRate: 0.02,
		DropCellRate: 0.01,
		Silences:     []workload.Silence{{DB: 3, Start: 200, Length: 120}},
	}
	fresh := correlate.NewEngine(correlate.DetectionOptions(), 1)
	sizes := map[int]int{}
	gappy, masked := 0, 0
	check := func(v *Verdict) {
		if v.Health == detect.HealthSkipped {
			return
		}
		win, stats, err := o.Processor().WindowWithStats(v.Start, v.Size)
		if err != nil {
			t.Fatalf("verdict window [%d, +%d): %v", v.Start, v.Size, err)
		}
		// The round's mask is the gap budget's overlay as the push left it.
		var active []bool
		for d, down := range o.Health().AutoDeactivated {
			if down {
				if active == nil {
					active = []bool{true, true, true, true, true}
				}
				active[d] = false
			}
		}
		mats, err := fresh.BuildMatrices(win, 0, v.Size, active)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Gaps != v.GapCells {
			t.Fatalf("verdict [%d, +%d): GapCells %d, fresh window has %d", v.Start, v.Size, v.GapCells, stats.Gaps)
		}
		if got := meanPairScore(mats, active); math.Float64bits(got) != math.Float64bits(v.MeanCorr) {
			t.Fatalf("verdict [%d, +%d): MeanCorr %v, fresh window gives %v", v.Start, v.Size, v.MeanCorr, got)
		}
		sizes[v.Size]++
		if v.GapCells > 0 {
			gappy++
		}
		if active != nil {
			masked++
		}
	}
	if _, errs := feedCollector(t, o, u, plan, check); len(errs) > 0 {
		t.Fatalf("push errors under faults: %d, first: %v", len(errs), errs[0])
	}
	for _, size := range []int{20, 40, 60} {
		if sizes[size] == 0 {
			t.Fatalf("no judged verdict of size %d (sizes %v)", size, sizes)
		}
	}
	if gappy == 0 || masked == 0 {
		t.Fatalf("run lacks gap-bearing (%d) or masked (%d) verdicts", gappy, masked)
	}
}

// When every database goes silent, too few peers remain to correlate: the
// judge must emit skipped verdicts and keep advancing, then recover.
func TestOnlineSkipsWhenTooFewActive(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 400, Seed: 92, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := newDegradedOnline(t)
	plan := workload.FaultPlan{Seed: 17}
	for d := 0; d < 4; d++ { // 4 of 5 databases silent for 140 ticks
		plan.Silences = append(plan.Silences, workload.Silence{DB: d, Start: 150, Length: 140})
	}
	verdicts, errs := feedCollector(t, o, u, plan, nil)
	if len(errs) > 0 {
		t.Fatalf("push errors: %v", errs[0])
	}
	skipped := 0
	var lastTick int
	for _, v := range verdicts {
		if v.Health == detect.HealthSkipped {
			skipped++
		}
		lastTick = v.Tick
	}
	if skipped == 0 {
		t.Fatal("no skipped rounds while the unit was down to one database")
	}
	if h := o.Health(); h.SkippedRounds != skipped {
		t.Fatalf("SkippedRounds = %d, observed %d", h.SkippedRounds, skipped)
	}
	// Detection resumed after the outage: judged verdicts near the end.
	if lastTick < 380 {
		t.Fatalf("last verdict at tick %d; judge did not keep up", lastTick)
	}
	tail := verdicts[len(verdicts)-1]
	if tail.Health == detect.HealthSkipped {
		t.Fatal("stream still skipping after full recovery")
	}
}

// A fault-free collector run must be bit-identical to feeding the series
// directly: the degraded-mode machinery may not perturb the clean path.
func TestOnlineFaultFreeCollectorBitIdentical(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 400, Seed: 31, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct := newDegradedOnline(t)
	viaCollector := newDegradedOnline(t)
	want := feedOnline(t, direct, u)
	got, errs := feedCollector(t, viaCollector, u, workload.FaultPlan{}, nil)
	if len(errs) > 0 {
		t.Fatalf("fault-free collector errored: %v", errs[0])
	}
	if len(got) != len(want) {
		t.Fatalf("verdict count %d != %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.Size != w.Size || g.Tick != w.Tick ||
			g.Abnormal != w.Abnormal || g.AbnormalDB != w.AbnormalDB ||
			g.Expansions != w.Expansions || g.Health != detect.HealthOK ||
			g.GapCells != 0 {
			t.Fatalf("verdict %d diverged: %+v vs %+v", i, g, w)
		}
		for d := range g.States {
			if g.States[d] != w.States[d] {
				t.Fatalf("verdict %d state %d diverged", i, d)
			}
		}
	}
	if h := viaCollector.Health(); h.GapCells != 0 || h.MissedTicks != 0 ||
		h.Deactivations != 0 || h.DegradedVerdicts != 0 || h.SkippedRounds != 0 {
		t.Fatalf("clean run dirtied the health counters: %+v", h)
	}
}

// The original wedge: Push must never return the same eviction error twice
// in a row — in fact it no longer returns eviction errors at all.
func TestOnlineNeverRepeatsEvictionError(t *testing.T) {
	o := newDegradedOnline(t)
	sample := make([][]float64, kpi.Count)
	for k := range sample {
		sample[k] = make([]float64, 5)
		for d := range sample[k] {
			sample[k][d] = float64(k + d)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := o.Push(sample); err != nil {
			t.Fatal(err)
		}
	}
	// Outage: 500 ticks ingested behind the judge's back.
	for i := 0; i < 500; i++ {
		if _, err := o.Processor().IngestDegraded(sample, nil); err != nil {
			t.Fatal(err)
		}
	}
	var prevErr string
	for i := 0; i < 200; i++ {
		_, err := o.Push(sample)
		if err != nil {
			if prevErr != "" && err.Error() == prevErr {
				t.Fatalf("push %d repeated the same error: %v", i, err)
			}
			if !strings.Contains(err.Error(), "evicted") {
				t.Fatalf("unexpected error class: %v", err)
			}
			prevErr = err.Error()
			continue
		}
		prevErr = ""
	}
	if h := o.Health(); h.SkippedRounds == 0 {
		t.Fatal("outage produced no skipped round")
	}
}
