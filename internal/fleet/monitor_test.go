package fleet

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

const (
	testUnits = 32
	testDBs   = 4
	testTicks = 200
)

func simUnit(t *testing.T, i int) *cluster.Unit {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name:            fmt.Sprintf("unit-%02d", i),
		Ticks:           testTicks,
		Databases:       testDBs,
		Seed:            uint64(41 + i*101),
		Profile:         workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// unitPlan varies collector faults across the fleet: every unit drops
// ticks and cells at its own seed, and every fourth unit also suffers a
// whole-database silence long enough to trip the deactivation budget.
func unitPlan(i int) workload.FaultPlan {
	plan := workload.FaultPlan{
		Seed:         uint64(7 + i),
		DropTickRate: 0.02,
		DropCellRate: 0.01,
	}
	if i%4 == 0 {
		plan.Silences = []workload.Silence{{DB: i % testDBs, Start: 60, Length: 80}}
	}
	return plan
}

func newTestOnline(t *testing.T) *monitor.Online {
	t.Helper()
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Workers:    1,
	}, kpi.Count, testDBs)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// verdictsEqual compares two verdict streams field by field; MeanCorr is
// NaN on skipped rounds, which reflect.DeepEqual would treat as unequal.
func verdictsEqual(t *testing.T, unit int, got, want []*monitor.Verdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("unit %d: %d verdicts, want %d", unit, len(got), len(want))
	}
	for k, g := range got {
		w := want[k]
		same := g.Tick == w.Tick && g.Start == w.Start && g.Size == w.Size &&
			g.Abnormal == w.Abnormal && g.AbnormalDB == w.AbnormalDB &&
			g.Expansions == w.Expansions && g.GapCells == w.GapCells &&
			g.Health == w.Health && len(g.States) == len(w.States)
		if same {
			for d := range g.States {
				same = same && g.States[d] == w.States[d]
			}
		}
		if same {
			same = g.MeanCorr == w.MeanCorr || (math.IsNaN(g.MeanCorr) && math.IsNaN(w.MeanCorr))
		}
		if !same {
			t.Fatalf("unit %d verdict %d diverged:\n  fleet %+v\n  solo  %+v", unit, k, g, w)
		}
	}
}

// The tentpole acceptance pin: a 32-unit fleet scheduled through one
// Monitor emits, per unit, the bit-identical verdict stream of 32
// independently run monitor.Online instances — including under injected
// collector faults (dropped ticks, lost cells, whole-database silences).
func TestMonitorMatchesIndependentUnits(t *testing.T) {
	units := make([]*cluster.Unit, testUnits)
	for i := range units {
		units[i] = simUnit(t, i)
	}

	// Reference: each unit alone, fed serially.
	solo := make([][]*monitor.Verdict, testUnits)
	for i, u := range units {
		o := newTestOnline(t)
		c, err := cluster.NewCollector(u.Series, unitPlan(i))
		if err != nil {
			t.Fatal(err)
		}
		for {
			sample, ok := c.Next()
			if !ok {
				break
			}
			v, err := o.Push(sample)
			if err != nil {
				t.Fatalf("solo unit %d: %v", i, err)
			}
			if v != nil {
				solo[i] = append(solo[i], v)
			}
		}
	}

	// Fleet: same units, same fault plans, one scheduler, 4-way pool.
	pushers := make([]Pusher, testUnits)
	collectors := make([]*cluster.Collector, testUnits)
	for i, u := range units {
		pushers[i] = newTestOnline(t)
		c, err := cluster.NewCollector(u.Series, unitPlan(i))
		if err != nil {
			t.Fatal(err)
		}
		collectors[i] = c
	}
	m, err := NewMonitor(pushers, 4)
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([][]*monitor.Verdict, testUnits)
	samples := make([][][]float64, testUnits)
	for tick := 0; tick < testTicks; tick++ {
		for i, c := range collectors {
			sample, ok := c.Next()
			if !ok {
				t.Fatalf("unit %d collector exhausted at tick %d", i, tick)
			}
			samples[i] = sample
		}
		verdicts, err := m.Push(samples)
		if err != nil {
			t.Fatalf("fleet tick %d: %v", tick, err)
		}
		for i, v := range verdicts {
			if v != nil {
				fleet[i] = append(fleet[i], v)
			}
		}
	}
	if m.Ticks() != testTicks {
		t.Fatalf("scheduled %d ticks, want %d", m.Ticks(), testTicks)
	}

	emitted := 0
	for i := range units {
		verdictsEqual(t, i, fleet[i], solo[i])
		emitted += len(fleet[i])
	}
	if emitted == 0 {
		t.Fatal("fleet emitted no verdicts")
	}
}

// A unit failure surfaces as the scheduler's error and discards the round.
func TestMonitorPushErrors(t *testing.T) {
	o := newTestOnline(t)
	m, err := NewMonitor([]Pusher{o}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Push(nil); err == nil {
		t.Fatal("sample/unit count mismatch accepted")
	}
	if _, err := NewMonitor(nil, 1); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewMonitor([]Pusher{nil}, 1); err == nil {
		t.Fatal("nil unit accepted")
	}
	if err := m.SetScrapers([]*scrape.Scraper{nil, nil}); err == nil {
		t.Fatal("scraper count mismatch accepted")
	}
	if _, _, err := m.ScrapeRound(context.Background()); err == nil {
		t.Fatal("scrape round without scrapers accepted")
	}
}

// Batched scraping: three units behind three exporters, one with a
// permanently failing database. Healthy units' verdict streams stay
// bit-identical to direct in-process pushes; the faulted unit matches a
// reference fed the same NaN-column samples its scraper assembles, and
// its own circuit breaker opens without disturbing its siblings.
func TestMonitorScrapeRound(t *testing.T) {
	const units, ticks = 3, 50
	cfgFlex := window.FlexConfig{Initial: 10, Max: 10}
	newOnline := func() *monitor.Online {
		o, err := monitor.NewOnline(detect.Config{
			Thresholds: window.DefaultThresholds(kpi.Count),
			Flex:       cfgFlex,
			Workers:    1,
		}, kpi.Count, testDBs)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	feeds := make([]*scrape.Feed, units)
	scrapers := make([]*scrape.Scraper, units)
	pushers := make([]Pusher, units)
	refs := make([]*monitor.Online, units)
	for i := 0; i < units; i++ {
		feeds[i] = scrape.NewFeed(kpi.Count, testDBs)
		exp := scrape.NewExporter(feeds[i])
		srv := httptest.NewServer(exp.Handler())
		defer srv.Close()
		if i == 1 {
			if err := exp.SetFault(0, scrape.Fault{Mode: scrape.Fault5xx, Count: 1 << 20}); err != nil {
				t.Fatal(err)
			}
		}
		// Each database at its own URL, so the fault on unit 1's database
		// 0 costs that database's column alone.
		targets := make([]string, testDBs)
		for d := range targets {
			targets[d] = fmt.Sprintf("%s/db/%d/kpis", srv.URL, d)
		}
		sc, err := scrape.New(scrape.Config{
			Targets:         targets,
			KPIs:            kpi.Count,
			MaxAttempts:     1,
			BreakerFailures: 2,
			JitterSeed:      99,
		})
		if err != nil {
			t.Fatal(err)
		}
		scrapers[i] = sc
		pushers[i] = newOnline()
		refs[i] = newOnline()
	}
	m, err := NewMonitor(pushers, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetScrapers(scrapers); err != nil {
		t.Fatal(err)
	}

	u := simUnit(t, 7)
	c, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([][]*monitor.Verdict, units)
	ref := make([][]*monitor.Verdict, units)
	nanCol := make([][]float64, kpi.Count)
	for tick := 0; tick < ticks; tick++ {
		sample, ok := c.Next()
		if !ok {
			t.Fatalf("collector exhausted at tick %d", tick)
		}
		for i := 0; i < units; i++ {
			if err := feeds[i].Publish(tick, sample); err != nil {
				t.Fatal(err)
			}
		}
		verdicts, reports, err := m.ScrapeRound(context.Background())
		if err != nil {
			t.Fatalf("scrape round %d: %v", tick, err)
		}
		if len(reports) != units {
			t.Fatalf("%d reports, want %d", len(reports), units)
		}
		for i, v := range verdicts {
			if v != nil {
				fleet[i] = append(fleet[i], v)
			}
		}
		// References: units 0 and 2 see the full sample; unit 1's scraper
		// assembles database 0 as a NaN column every round.
		for k, row := range sample {
			nanCol[k] = append(nanCol[k][:0], row...)
			nanCol[k][0] = math.NaN()
		}
		for i, r := range refs {
			in := sample
			if i == 1 {
				in = nanCol
			}
			v, err := r.Push(in)
			if err != nil {
				t.Fatalf("reference unit %d: %v", i, err)
			}
			if v != nil {
				ref[i] = append(ref[i], v)
			}
		}
	}

	for i := 0; i < units; i++ {
		verdictsEqual(t, i, fleet[i], ref[i])
		if len(fleet[i]) == 0 {
			t.Fatalf("unit %d emitted no verdicts", i)
		}
	}
	// The faulted unit's breaker opened; its siblings' stayed closed.
	h1 := scrapers[1].Health()
	if h1.Targets[0].Breaker == scrape.BreakerClosed.String() {
		t.Fatalf("unit 1 target 0 breaker still closed: %+v", h1.Targets[0])
	}
	for _, i := range []int{0, 2} {
		for d, th := range scrapers[i].Health().Targets {
			if th.Breaker != scrape.BreakerClosed.String() {
				t.Fatalf("healthy unit %d target %d breaker %q", i, d, th.Breaker)
			}
		}
	}
}
