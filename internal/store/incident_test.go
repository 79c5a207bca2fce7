package store

import (
	"bytes"
	"reflect"
	"testing"

	"dbcatcher/internal/incident"
)

func incidentRec() Record {
	return Record{Type: RecIncident, Incident: IncidentRecord{
		RoundTick: 120,
		Transitions: []IncidentTransition{
			{Event: 1, ID: 1, Cluster: 1, Unit: 0, DB: 2, KPIs: 1 << 2, FirstTick: 100, LastTick: 120, Count: 1},
			{Event: 2, ID: 1, Cluster: 1, Unit: 0, DB: 2, KPIs: ^uint64(0), FirstTick: 100, LastTick: 140, Count: 2},
			{Event: 3, ID: 2, Cluster: 1, Unit: 31, DB: 0, KPIs: 1, FirstTick: 104, LastTick: 124, Count: 1},
		},
	}}
}

func TestIncidentPayloadRoundTrip(t *testing.T) {
	rec := incidentRec()
	if err := rec.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	payload := appendPayload(nil, &rec)
	got, err := decodePayload(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("round trip diverged:\n  in  %+v\n  out %+v", rec, got)
	}
	if re := appendPayload(nil, &got); !bytes.Equal(re, payload) {
		t.Fatal("re-encode mismatch")
	}
}

func TestIncidentStrictDecode(t *testing.T) {
	rec := incidentRec()
	payload := appendPayload(nil, &rec)
	if _, err := decodePayload(append(append([]byte(nil), payload...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for cut := 1; cut < len(payload); cut++ {
		if _, err := decodePayload(payload[:cut]); err == nil {
			t.Fatalf("truncated payload (%d/%d bytes) accepted", cut, len(payload))
		}
	}
	// Append-time validation mirrors the decoder on every invariant.
	for name, mut := range map[string]func(*Record){
		"zero event":     func(r *Record) { r.Incident.Transitions[0].Event = 0 },
		"event 4":        func(r *Record) { r.Incident.Transitions[0].Event = 4 },
		"zero id":        func(r *Record) { r.Incident.Transitions[0].ID = 0 },
		"zero cluster":   func(r *Record) { r.Incident.Transitions[0].Cluster = 0 },
		"negative unit":  func(r *Record) { r.Incident.Transitions[0].Unit = -1 },
		"huge unit":      func(r *Record) { r.Incident.Transitions[0].Unit = maxUnits },
		"huge db":        func(r *Record) { r.Incident.Transitions[0].DB = maxStates },
		"empty window":   func(r *Record) { r.Incident.Transitions[0].LastTick = r.Incident.Transitions[0].FirstTick },
		"zero count":     func(r *Record) { r.Incident.Transitions[0].Count = 0 },
		"negative round": func(r *Record) { r.Incident.RoundTick = -1 },
	} {
		bad := incidentRec()
		mut(&bad)
		if err := bad.validate(); err == nil {
			t.Errorf("%s passed validation", name)
		}
	}
}

// incidentRound is one fleet round of the rehydration scenario.
type incidentRound struct {
	tick   int
	events []incident.Event
}

// incidentScenario is a compact correlated-fault stream: unit 0 leads on
// KPI 2, units 1-3 follow on KPI 12, plus an unrelated late incident.
func incidentScenario() []incidentRound {
	byTick := map[int][]incident.Event{
		120: {{Unit: 0, DB: 2, KPIs: incident.KPISet(0).With(2), Start: 100, End: 120}},
		140: {{Unit: 0, DB: 2, KPIs: incident.KPISet(0).With(2), Start: 120, End: 140}},
		220: {{Unit: 9, DB: 1, KPIs: incident.KPISet(0).With(5), Start: 200, End: 220}},
	}
	for u := 1; u <= 3; u++ {
		byTick[124] = append(byTick[124], incident.Event{Unit: u, DB: 2, KPIs: incident.KPISet(0).With(12), Start: 104, End: 124})
		byTick[144] = append(byTick[144], incident.Event{Unit: u, DB: 2, KPIs: incident.KPISet(0).With(12), Start: 124, End: 144})
	}
	var rounds []incidentRound
	for tick := 0; tick <= 300; tick += 4 {
		rounds = append(rounds, incidentRound{tick: tick, events: byTick[tick]})
	}
	return rounds
}

func incidentCfg() incident.Config {
	return incident.Config{ProximityTicks: 16, CloseAfter: 30, MaxHistory: 64}
}

// feedJournaled drives rounds through the aggregator, batching each
// round's transitions into one RecIncident record — the daemon's exact
// journaling shape.
func feedJournaled(a *incident.Aggregator, fp *FleetPersister, rounds []incidentRound) {
	var buf []incident.Transition
	a.SetPersist(func(tr incident.Transition) { buf = append(buf, tr) })
	for _, r := range rounds {
		buf = buf[:0]
		a.ObserveRound(r.tick, r.events)
		fp.RecordIncidentRound(r.tick, buf)
	}
}

// TestIncidentWALRehydration is the acceptance e2e: cut the run at several
// round boundaries, reopen the WAL, Restore, resume the full deterministic
// stream — the final state must match the uninterrupted run bit-for-bit,
// and a fresh Restore of the complete journal must match it too.
func TestIncidentWALRehydration(t *testing.T) {
	rounds := incidentScenario()

	ref := incident.New(incidentCfg())
	for _, r := range rounds {
		ref.ObserveRound(r.tick, r.events)
	}
	want := ref.Fingerprint()

	for _, cut := range []int{0, 10, 32, 37, 45, len(rounds)} {
		dir := t.TempDir()
		st, rec, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		a := incident.New(incidentCfg())
		feedJournaled(a, NewFleetPersister(st, rec), rounds[:cut])
		if err := st.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}

		st2, rec2, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		b := incident.New(incidentCfg())
		if err := b.Restore(rec2.IncidentTransitions()); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		// Resume: the fleet replays its deterministic input from round 0;
		// the aggregator skips everything at or below its horizon.
		feedJournaled(b, NewFleetPersister(st2, rec2), rounds)
		if got := b.Fingerprint(); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: rehydrated run diverged:\n--- want ---\n%s\n--- got ---\n%s", cut, want, got)
		}
		if err := st2.Close(); err != nil {
			t.Fatalf("cut %d: close 2: %v", cut, err)
		}

		// The complete journal alone rebuilds the same terminal state.
		st3, rec3, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("cut %d: reopen 3: %v", cut, err)
		}
		c := incident.New(incidentCfg())
		if err := c.Restore(rec3.IncidentTransitions()); err != nil {
			t.Fatalf("cut %d: restore 3: %v", cut, err)
		}
		if got := c.Fingerprint(); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: journal-only restore diverged:\n--- want ---\n%s\n--- got ---\n%s", cut, want, got)
		}
		st3.Close()
	}
}

func TestRecordIncidentRoundCounters(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	fp := NewFleetPersister(st, rec)
	fp.RecordIncidentRound(100, nil) // empty rounds are not journaled
	fp.RecordIncidentRound(120, []incident.Transition{
		{Event: incident.TransOpen, ID: 1, Cluster: 1, Unit: 0, DB: 2, KPIs: 4, FirstTick: 100, LastTick: 120, Count: 1, RoundTick: 120},
		{Event: incident.TransOpen, ID: 2, Cluster: 1, Unit: 1, DB: 2, KPIs: 4, FirstTick: 104, LastTick: 120, Count: 1, RoundTick: 120},
	})
	status := fp.Status().(FleetStatus)
	if status.IncidentRounds != 1 || status.IncidentTransitions != 2 {
		t.Fatalf("status = %+v, want 1 round / 2 transitions", status)
	}
	if status.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", status)
	}
}
