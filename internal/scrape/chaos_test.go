package scrape

import (
	"reflect"
	"testing"
	"time"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

func newChaosOnline(t *testing.T, dbs int) *monitor.Online {
	t.Helper()
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Workers:    1,
	}, kpi.Count, dbs)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func simulateUnit(t *testing.T, ticks int, seed uint64) *cluster.Unit {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: ticks, Seed: seed, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// runInProcess is the reference pipeline: the collector feeds the judge
// directly, no network anywhere.
func runInProcess(t *testing.T, u *cluster.Unit) []*monitor.Verdict {
	t.Helper()
	o := newChaosOnline(t, u.Series.Databases)
	c, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []*monitor.Verdict
	for {
		sample, ok := c.Next()
		if !ok {
			break
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

// With healthy exporters, routing every sample through HTTP — encode,
// serve, scrape, parse, assemble — must yield verdicts bit-identical to
// the in-process collector. This is the acceptance bar for the scrape
// layer: the network is invisible when it behaves. It holds for both
// target shapes: a URL per database, and the whole unit at /kpis in one
// request per round.
func TestScrapeModeBitIdenticalToInProcess(t *testing.T) {
	const ticks = 240
	u := simulateUnit(t, ticks, 29)
	want := runInProcess(t, u)

	dbs := u.Series.Databases
	for _, shape := range []struct {
		name      string
		targets   func(base string, dbs int) []string
		wantUnit  int64 // GET /kpis over the run
		wantPerDB int64 // GET /db/{db}/kpis per database over the run
	}{
		{"per-database", dbTargets, 0, ticks},
		{"unit", SelfTargets, ticks, 0},
	} {
		t.Run(shape.name, func(t *testing.T) {
			p := newPipe(t, u.Series.KPIs, dbs, shape.targets, nil)
			judge := newChaosOnline(t, dbs)
			c, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
			if err != nil {
				t.Fatal(err)
			}
			var got []*monitor.Verdict
			for tick := 0; ; tick++ {
				sample, ok := c.Next()
				if !ok {
					break
				}
				p.publish(t, tick, sample)
				assembled, rep := p.round(t)
				if rep.Missing != 0 || rep.Skipped != 0 || rep.Late {
					t.Fatalf("tick %d: healthy scrape round incomplete: %+v", tick, rep)
				}
				v, err := judge.Push(assembled)
				if err != nil {
					t.Fatal(err)
				}
				if v != nil {
					got = append(got, v)
				}
			}

			if len(got) != len(want) {
				t.Fatalf("scrape mode emitted %d verdicts, in-process %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("verdict %d differs:\nscrape:     %+v\nin-process: %+v", i, got[i], want[i])
				}
			}
			if h := p.s.Health(); h.CompleteRounds != ticks {
				t.Fatalf("complete rounds = %d, want %d", h.CompleteRounds, ticks)
			}
			if n := p.unitReqs.Load(); n != shape.wantUnit {
				t.Fatalf("%d unit requests, want %d", n, shape.wantUnit)
			}
			for db := range p.reqs {
				if n := p.reqs[db].Load(); n != shape.wantPerDB {
					t.Fatalf("db %d: %d requests, want %d", db, n, shape.wantPerDB)
				}
			}
		})
	}
}

// The chaos scenario from the issue: four of five exporters turn hostile
// at once — one hangs, one returns 500s, one serves truncated JSON, one
// flaps — while detection keeps running. Rounds must keep completing via
// the degraded path, breakers must bound the hammering of dead targets,
// and once the faults clear the verdict stream must re-converge with the
// in-process reference bit for bit.
func TestChaosRoundsSurviveFlakyExporters(t *testing.T) {
	const (
		ticks   = 400
		faultAt = 60
		clearAt = 140
	)
	u := simulateUnit(t, ticks, 31)
	want := runInProcess(t, u)

	dbs := u.Series.Databases // 5
	p := newTestPipe(t, u.Series.KPIs, dbs, func(c *Config) {
		c.RoundTimeout = time.Second
		c.TryTimeout = 100 * time.Millisecond
		c.MaxAttempts = 2
		c.BreakerFailures = 2
		c.BreakerOpenRounds = 5
		c.StaleRounds = 3
	})
	judge := newChaosOnline(t, dbs)
	c, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}

	var got []*monitor.Verdict
	var reqsAtFault, reqsAtClear [2]int64 // db1 (hang), db2 (5xx)
	for tick := 0; ; tick++ {
		switch tick {
		case faultAt:
			reqsAtFault = [2]int64{p.reqs[1].Load(), p.reqs[2].Load()}
			p.exp.SetFault(1, Fault{Mode: FaultHang})
			p.exp.SetFault(2, Fault{Mode: Fault5xx})
			p.exp.SetFault(3, Fault{Mode: FaultTruncate})
			p.exp.SetFault(4, Fault{Mode: FaultFlap})
		case clearAt:
			reqsAtClear = [2]int64{p.reqs[1].Load(), p.reqs[2].Load()}
			for db := 1; db <= 4; db++ {
				p.exp.SetFault(db, Fault{})
			}
		}
		sample, ok := c.Next()
		if !ok {
			break
		}
		p.publish(t, tick, sample)
		assembled, rep := p.round(t)
		// The flap target always recovers within the round's retry
		// budget, and db0 never faults, so even the worst rounds keep at
		// least two live columns — detection is never starved.
		if rep.Arrived < 2 {
			t.Fatalf("tick %d: only %d targets arrived: %+v", tick, rep.Arrived, rep)
		}
		// Outside the fault window (with slack for breaker probe cycles
		// to close), every round is complete again.
		if (tick < faultAt || tick >= clearAt+30) && rep.Arrived != dbs {
			t.Fatalf("tick %d: round incomplete outside fault window: %+v", tick, rep)
		}
		v, err := judge.Push(assembled)
		if err != nil {
			t.Fatalf("tick %d: push: %v", tick, err)
		}
		if v != nil {
			got = append(got, v)
		}
	}

	// No round was ever lost: every one of the 400 ticks was ingested.
	if n := judge.Processor().Ticks(); n != ticks {
		t.Fatalf("judge ingested %d ticks, want %d", n, ticks)
	}
	h := p.s.Health()
	if h.Rounds != ticks {
		t.Fatalf("scraper ran %d rounds, want %d", h.Rounds, ticks)
	}

	// Breaker behaviour per scripted target.
	hang, fivexx, trunc, flap := h.Targets[1], h.Targets[2], h.Targets[3], h.Targets[4]
	if hang.Timeouts < 2 || hang.BreakerTrips < 1 || hang.Probes < 3 || hang.SkippedRounds < 20 {
		t.Fatalf("hang target stats = %+v", hang)
	}
	if fivexx.BreakerTrips < 1 || fivexx.SkippedRounds < 20 {
		t.Fatalf("5xx target stats = %+v", fivexx)
	}
	if trunc.BreakerTrips < 1 || trunc.SkippedRounds < 20 {
		t.Fatalf("truncate target stats = %+v", trunc)
	}
	// The flapping target never fails twice in a row, so its breaker must
	// never trip — it survives on in-round retries alone.
	if flap.BreakerTrips != 0 || flap.Retries < 10 {
		t.Fatalf("flap target stats = %+v", flap)
	}
	for db, th := range h.Targets {
		if th.Breaker != "closed" {
			t.Fatalf("db %d breaker still %q after recovery", db, th.Breaker)
		}
	}
	// Bounded hammering: during the 80 dead rounds the breaker held the
	// hang and 5xx targets to a handful of probe requests instead of
	// rounds × attempts.
	for i, name := range []string{"hang", "5xx"} {
		faultSpan := reqsAtClear[i] - reqsAtFault[i]
		if faultSpan > 30 {
			t.Fatalf("%s target got %d requests across %d dead rounds — breaker not bounding retries", name, faultSpan, clearAt-faultAt)
		}
	}

	// The judge self-healed: the three fully-dead databases were benched
	// by the gap budget and came back after the recover streak.
	mh := judge.Health()
	if mh.Deactivations < 3 || mh.Reactivations < 3 {
		t.Fatalf("monitor health = %+v", mh)
	}
	if mh.DegradedVerdicts == 0 || mh.GapCells == 0 {
		t.Fatalf("no degraded accounting despite chaos: %+v", mh)
	}
	degraded := 0
	for _, v := range got {
		if v.Health == detect.HealthDegraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded verdicts during the fault window")
	}

	// Tail re-convergence: once faults stop and the recover streak has
	// elapsed, verdicts over clean windows are bit-identical to the
	// in-process reference. Compare by window start — both streams tile
	// the same 20-tick grid.
	wantByStart := make(map[int]*monitor.Verdict, len(want))
	for _, v := range want {
		wantByStart[v.Start] = v
	}
	const tailStart = 240
	matched := 0
	for _, v := range got {
		if v.Start < tailStart {
			continue
		}
		ref, ok := wantByStart[v.Start]
		if !ok {
			t.Fatalf("chaos tail verdict start %d missing from reference", v.Start)
		}
		if !reflect.DeepEqual(v, ref) {
			t.Fatalf("tail verdict at start %d differs:\nchaos:     %+v\nreference: %+v", v.Start, v, ref)
		}
		matched++
	}
	if matched < 3 {
		t.Fatalf("only %d tail verdicts matched the reference (want >= 3)", matched)
	}
}
