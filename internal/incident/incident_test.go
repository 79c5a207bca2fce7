package incident

import (
	"bytes"
	"strings"
	"testing"
)

// round is one fleet round of the synthetic 32-unit scenario.
type round struct {
	tick   int
	events []Event
}

func testConfig() Config {
	return Config{ProximityTicks: 16, CloseAfter: 30, MaxHistory: 64}
}

// correlatedScenario builds the deterministic 32-unit verdict stream the
// acceptance criteria pin on: a correlated fault where unit 0 deviates on
// CPU Utilization (KPI 2) at tick 100 and replicas 1-5 follow on Real
// Capacity (KPI 12) four ticks later, all on db 2, plus one unrelated
// incident on unit 20 far away in time. Rounds fire every 4 ticks.
func correlatedScenario() []round {
	byTick := map[int][]Event{
		// Unit 0 leads on KPI 2: windows [100,120), [120,140), [140,160).
		120: {{Unit: 0, DB: 2, KPIs: KPISet(0).With(2), Start: 100, End: 120}},
		140: {{Unit: 0, DB: 2, KPIs: KPISet(0).With(2), Start: 120, End: 140}},
		160: {{Unit: 0, DB: 2, KPIs: KPISet(0).With(2), Start: 140, End: 160}},
	}
	// Units 1-5 follow on KPI 12: windows [104,124), [124,144).
	for u := 1; u <= 5; u++ {
		byTick[124] = append(byTick[124], Event{Unit: u, DB: 2, KPIs: KPISet(0).With(12), Start: 104, End: 124})
		byTick[144] = append(byTick[144], Event{Unit: u, DB: 2, KPIs: KPISet(0).With(12), Start: 124, End: 144})
	}
	// Unrelated noise incident on unit 20, far outside the proximity window.
	byTick[320] = []Event{{Unit: 20, DB: 1, KPIs: KPISet(0).With(5), Start: 300, End: 320}}

	var rounds []round
	for tick := 0; tick <= 400; tick += 4 {
		rounds = append(rounds, round{tick: tick, events: byTick[tick]})
	}
	return rounds
}

func runScenario(a *Aggregator, rounds []round) {
	for _, r := range rounds {
		a.ObserveRound(r.tick, r.events)
	}
}

func TestCorrelatedFaultCollapsesToOneCluster(t *testing.T) {
	a := New(testConfig())
	runScenario(a, correlatedScenario())

	st := a.Status()
	if st.OpenIncidents != 0 || st.OpenClusters != 0 {
		t.Fatalf("expected fully closed state, got %+v", st)
	}
	if st.ClosedIncidents != 7 {
		t.Fatalf("closed incidents = %d, want 7 (6 fault + 1 noise)", st.ClosedIncidents)
	}
	if st.ClosedClusters != 2 {
		t.Fatalf("closed clusters = %d, want 2 (fault + noise)", st.ClosedClusters)
	}
	// Reinforcements absorbed by dedup: unit 0 had 2, units 1-5 one each.
	if st.Merged != 7 {
		t.Fatalf("merged verdicts = %d, want 7", st.Merged)
	}

	total, reps := a.Page(0, 10)
	if total != 2 || len(reps) != 2 {
		t.Fatalf("Page: total=%d len=%d, want 2/2", total, len(reps))
	}
	fault := reps[0]
	if len(fault.Members) != 6 {
		t.Fatalf("fault cluster has %d members, want 6: %s", len(fault.Members), fault.Summary())
	}
	p := fault.Partition
	if got := intRanges(p.Units); got != "0-5" {
		t.Fatalf("fault cluster units = %q, want 0-5", got)
	}
	if len(p.DBs) != 1 || p.DBs[0] != 2 {
		t.Fatalf("fault cluster dbs = %v, want [2]", p.DBs)
	}
	if p.ConstantKPIs != 0 {
		t.Fatalf("constant KPIs = %v, want none (leader and replicas deviate on different KPIs)", p.ConstantKPIs)
	}
	want := KPISet(0).With(2).With(12)
	if p.VaryingKPIs != want {
		t.Fatalf("varying KPIs = %v, want %v", p.VaryingKPIs, want)
	}
	if !strings.Contains(fault.Summary(), "unit(s) 0-5") {
		t.Fatalf("summary missing unit range: %s", fault.Summary())
	}

	// Lead-lag: KPI 2's onset (tick 100) precedes KPI 12's (tick 104).
	if len(fault.Cascade) != 1 {
		t.Fatalf("fault cluster cascade = %v, want exactly one hint", fault.Cascade)
	}
	h := fault.Cascade[0]
	if h.Lead != 2 || h.Lag != 12 || h.Ticks != 4 {
		t.Fatalf("cascade hint = %+v, want KPI 2 leads KPI 12 by 4", h)
	}
	if h.Share != 1 || h.Samples != 1 {
		t.Fatalf("cascade confidence = %+v, want share 1.0 of 1 sample", h)
	}
	if !strings.Contains(h.String(), "leads") {
		t.Fatalf("cascade hint renders as %q", h.String())
	}

	noise := reps[1]
	if len(noise.Members) != 1 || noise.Members[0].Unit != 20 {
		t.Fatalf("noise cluster = %s, want single unit-20 member", noise.Summary())
	}
}

func TestDeterministicFingerprint(t *testing.T) {
	rounds := correlatedScenario()
	a, b := New(testConfig()), New(testConfig())
	runScenario(a, rounds)
	runScenario(b, rounds)
	fa, fb := a.Fingerprint(), b.Fingerprint()
	if !bytes.Equal(fa, fb) {
		t.Fatalf("two runs over the same stream diverged:\n--- a ---\n%s\n--- b ---\n%s", fa, fb)
	}
	if len(fa) == 0 {
		t.Fatal("empty fingerprint")
	}
}

// TestRestoreMatchesUninterrupted is the rehydration acceptance test: for
// every round-boundary cut point, restoring from the journaled transitions
// and replaying the full deterministic stream (rounds at or below the
// horizon are skipped) lands in a state bit-for-bit identical to the
// uninterrupted run.
func TestRestoreMatchesUninterrupted(t *testing.T) {
	rounds := correlatedScenario()

	ref := New(testConfig())
	var journal []Transition
	ref.SetPersist(func(tr Transition) { journal = append(journal, tr) })
	runScenario(ref, rounds)
	want := ref.Fingerprint()
	if len(journal) == 0 {
		t.Fatal("scenario produced no transitions")
	}

	// Cut points: only at round boundaries — the WAL batches one round's
	// transitions into a single record, so a recovered journal never tears
	// mid-round.
	cuts := []int{0, len(journal)}
	for i := 1; i < len(journal); i++ {
		if journal[i].RoundTick != journal[i-1].RoundTick {
			cuts = append(cuts, i)
		}
	}
	for _, cut := range cuts {
		a := New(testConfig())
		if err := a.Restore(journal[:cut]); err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		if cut > 0 && a.Horizon() != journal[cut-1].RoundTick {
			t.Fatalf("cut %d: horizon = %d, want %d", cut, a.Horizon(), journal[cut-1].RoundTick)
		}
		runScenario(a, rounds) // rounds <= horizon skip; the rest replay live
		if got := a.Fingerprint(); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: rehydrated state diverged:\n--- want ---\n%s\n--- got ---\n%s", cut, want, got)
		}
	}
}

func TestRestoreRejectsCorruptSequences(t *testing.T) {
	open := Transition{Event: TransOpen, ID: 1, Cluster: 1, Unit: 0, DB: 0, KPIs: 1, FirstTick: 0, LastTick: 4, Count: 1, RoundTick: 4}
	cases := map[string][]Transition{
		"duplicate open": {open, open},
		"orphan update":  {{Event: TransUpdate, ID: 9, Unit: 3, DB: 1, KPIs: 2, LastTick: 8, Count: 2, RoundTick: 8}},
		"orphan close":   {{Event: TransClose, ID: 9, Unit: 3, DB: 1, KPIs: 2, LastTick: 8, Count: 2, RoundTick: 8}},
		"unknown event":  {{Event: 77, ID: 1, RoundTick: 4}},
		"mismatched id":  {open, {Event: TransUpdate, ID: 2, Unit: 0, DB: 0, KPIs: 1, LastTick: 8, Count: 2, RoundTick: 8}},
	}
	for name, ts := range cases {
		if err := New(testConfig()).Restore(ts); err == nil {
			t.Errorf("%s: Restore accepted a corrupt sequence", name)
		}
	}
	a := New(testConfig())
	a.ObserveRound(4, []Event{{Unit: 0, DB: 0, KPIs: 1, Start: 0, End: 4}})
	if err := a.Restore(nil); err == nil {
		t.Error("Restore on a non-empty aggregator should fail")
	}
}

func TestEventValidationAndDropCounters(t *testing.T) {
	cfg := testConfig()
	cfg.MaxOpen = 2
	a := New(cfg)
	a.ObserveRound(4, []Event{
		{Unit: -1, DB: 0, KPIs: 1, Start: 0, End: 4}, // negative unit
		{Unit: 0, DB: -1, KPIs: 1, Start: 0, End: 4}, // negative db
		{Unit: 0, DB: 0, KPIs: 1, Start: 4, End: 4},  // empty window
		{Unit: 0, DB: 0, KPIs: 1, Start: 0, End: 4},
		{Unit: 1, DB: 0, KPIs: 1, Start: 0, End: 4},
		{Unit: 2, DB: 0, KPIs: 1, Start: 0, End: 4}, // over MaxOpen
	})
	st := a.Status()
	if st.OpenIncidents != 2 {
		t.Fatalf("open incidents = %d, want 2 (MaxOpen)", st.OpenIncidents)
	}
	if st.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4 (3 invalid + 1 over MaxOpen)", st.Dropped)
	}
}

func TestStaleRoundsAreSkipped(t *testing.T) {
	a := New(testConfig())
	ev := []Event{{Unit: 0, DB: 0, KPIs: 1, Start: 0, End: 4}}
	a.ObserveRound(4, ev)
	before := a.Status()
	a.ObserveRound(4, ev) // replayed round: must be a no-op
	a.ObserveRound(2, ev) // older round: must be a no-op
	if after := a.Status(); after != before {
		t.Fatalf("stale rounds mutated state: %+v -> %+v", before, after)
	}
}

func TestFlushClosesEverything(t *testing.T) {
	a := New(testConfig())
	a.ObserveRound(4, []Event{
		{Unit: 0, DB: 0, KPIs: 1, Start: 0, End: 4},
		{Unit: 1, DB: 0, KPIs: 1, Start: 0, End: 4},
	})
	a.Flush(1000)
	st := a.Status()
	if st.OpenIncidents != 0 || st.OpenClusters != 0 {
		t.Fatalf("Flush left open state: %+v", st)
	}
	if st.ClosedIncidents != 2 || st.ClosedClusters != 1 {
		t.Fatalf("Flush closed %d incidents / %d clusters, want 2/1", st.ClosedIncidents, st.ClosedClusters)
	}
}

func TestHistoryRingsStayBounded(t *testing.T) {
	cfg := testConfig()
	cfg.MaxHistory = 4
	cfg.ProximityTicks = 1
	cfg.CloseAfter = 1
	a := New(cfg)
	// 20 well-separated single-incident bursts: every one closes, but the
	// rings retain only the newest 4.
	for i := 0; i < 20; i++ {
		base := i * 100
		a.ObserveRound(base+4, []Event{{Unit: 0, DB: 0, KPIs: 1, Start: base, End: base + 4}})
		a.ObserveRound(base+10, nil)
	}
	a.Flush(10_000)
	st := a.Status()
	if st.ClosedIncidents != 20 || st.ClosedClusters != 20 {
		t.Fatalf("closed totals = %d/%d, want 20/20", st.ClosedIncidents, st.ClosedClusters)
	}
	total, reps := a.Page(0, 100)
	if total != 4 || len(reps) != 4 {
		t.Fatalf("retained reports = %d/%d, want 4 (MaxHistory)", total, len(reps))
	}
	// Newest survive: IDs ascending and ending at 20.
	if reps[3].ID != 20 || reps[0].ID != 17 {
		t.Fatalf("retained cluster IDs %d..%d, want 17..20", reps[0].ID, reps[3].ID)
	}
}

func TestPageBounds(t *testing.T) {
	a := New(testConfig())
	runScenario(a, correlatedScenario())
	if total, rows := a.Page(5, 10); total != 2 || len(rows) != 0 {
		t.Fatalf("offset past end: total=%d rows=%d", total, len(rows))
	}
	if total, rows := a.Page(-1, 10); total != 2 || len(rows) != 0 {
		t.Fatalf("negative offset: total=%d rows=%d", total, len(rows))
	}
	if _, rows := a.Page(1, 1); len(rows) != 1 || rows[0].ID != 2 {
		t.Fatalf("second page wrong: %v", rows)
	}
	if _, rows := a.Page(0, 0); len(rows) != 2 {
		t.Fatalf("limit 0 should mean no cap: got %d rows", len(rows))
	}
}

// TestSteadyStateDedupIsAllocationFree pins the hot-path guarantee: once
// incidents are open, a full fleet round of reinforcing verdicts (merge +
// sweeps) performs zero allocations.
func TestSteadyStateDedupIsAllocationFree(t *testing.T) {
	cfg := testConfig()
	cfg.CloseAfter = 1 << 30 // keep everything open for the duration
	cfg.ProximityTicks = 1 << 30
	a := New(cfg)
	a.SetPersist(func(Transition) {}) // journal hook on, as in production

	const units = 32
	events := make([]Event, units)
	for u := 0; u < units; u++ {
		events[u] = Event{Unit: u, DB: 2, KPIs: KPISet(0).With(12), Start: 0, End: 4}
	}
	tick := 4
	a.ObserveRound(tick, events) // opens the 32 incidents

	allocs := testing.AllocsPerRun(200, func() {
		tick += 4
		for u := range events {
			events[u].End = tick
		}
		a.ObserveRound(tick, events)
	})
	if allocs != 0 {
		t.Fatalf("steady-state round allocated %.1f times, want 0", allocs)
	}
	if st := a.Status(); st.OpenIncidents != units {
		t.Fatalf("expected %d open incidents, got %+v", units, st)
	}
}
