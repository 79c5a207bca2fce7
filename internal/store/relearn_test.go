package store

import (
	"math"
	"reflect"
	"testing"

	"dbcatcher/internal/relearn"
)

func TestRelearnRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := []RelearnRecord{
		{Tick: 10, Attempt: 1, Event: 1},
		{Tick: 40, Attempt: 1, TrainRecords: 30, HoldoutRecords: 12, Event: 4, Fitness: 0.91, Baseline: 0.9},
		{Tick: 140, Attempt: 1, Event: 5, Fitness: 0.91, Baseline: 0.9, FlipRate: 0.02},
		{Tick: 200, Attempt: 2, Event: 2, Fitness: -1, Baseline: -1, FlipRate: -1},
	}
	for _, r := range recs {
		if _, err := st.AppendRelearn(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := rec.RelearnEvents()
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("recovered relearn records:\n  got  %+v\n  want %+v", got, recs)
	}
}

func TestRelearnRecordRejectsNonFinite(t *testing.T) {
	st, _, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AppendRelearn(RelearnRecord{Tick: 1, Attempt: 1, Event: 2, Fitness: math.NaN()}); err == nil {
		t.Fatal("NaN fitness accepted by the WAL")
	}
	if _, err := st.AppendRelearn(RelearnRecord{Tick: 1, Attempt: 1, Event: 2, FlipRate: math.Inf(1)}); err == nil {
		t.Fatal("Inf flip rate accepted by the WAL")
	}
}

// TestPersisterSanitizesRelearnScores: the Recorder bridge maps the
// supervisor's non-finite scores (meaningless for failed attempts) to the
// -1 sentinel, so the strict canonical decoder never sees a NaN.
func TestPersisterSanitizesRelearnScores(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPersister(NewFleetPersister(st, rec), rec, nil, 1)
	p.RecordRelearn(relearn.Event{
		Kind: relearn.EventFailed, Tick: 7, Attempt: 3,
		Fitness: math.NaN(), Baseline: math.Inf(-1), FlipRate: math.Inf(1),
		Reason: "retrain panic: boom",
	})
	p.RecordRelearn(relearn.Event{
		Kind: relearn.EventPromoted, Tick: 9, Attempt: 3,
		Fitness: 0.8, Baseline: 0.79, FlipRate: 0.1,
	})
	if got := p.Status().(Status).RelearnEvents; got != 2 {
		t.Fatalf("RelearnEvents counter = %d, want 2", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	evs := rec2.RelearnEvents()
	if len(evs) != 2 {
		t.Fatalf("recovered %d events, want 2", len(evs))
	}
	failed := evs[0]
	if failed.Event != uint8(relearn.EventFailed) || failed.Fitness != -1 || failed.Baseline != -1 || failed.FlipRate != -1 {
		t.Fatalf("non-finite scores not sanitized: %+v", failed)
	}
	promoted := evs[1]
	if promoted.Event != uint8(relearn.EventPromoted) || promoted.Fitness != 0.8 {
		t.Fatalf("finite scores mangled: %+v", promoted)
	}
}
