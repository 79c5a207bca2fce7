package store

import (
	"bytes"
	"reflect"
	"testing"

	"dbcatcher/internal/monitor"
)

func unitVerdict(unit, tick int, abnormal bool) UnitVerdictRecord {
	return UnitVerdictRecord{
		Unit: unit,
		Verdict: VerdictRecord{
			Tick: tick, Start: tick - 19, Size: 20, AbnormalDB: -1,
			Abnormal: abnormal, Health: 0, States: []uint8{0, 0, 0},
		},
	}
}

func TestUnitVerdictPayloadRoundTrip(t *testing.T) {
	rec := Record{Type: RecUnitVerdict, UnitVerdict: unitVerdict(31, 140, true)}
	rec.UnitVerdict.Verdict.AbnormalDB = 2
	rec.UnitVerdict.Verdict.States = []uint8{0, 0, 2}
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
		t.Fatalf("re-encode mismatch")
	}
}

func TestUnitVerdictStrictDecode(t *testing.T) {
	rec := Record{Type: RecUnitVerdict, UnitVerdict: unitVerdict(3, 40, false)}
	payload := appendPayload(nil, &rec)

	// Trailing garbage after a well-formed payload must be rejected.
	if _, err := decodePayload(append(append([]byte(nil), payload...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Truncation anywhere must be rejected.
	for cut := 1; cut < len(payload); cut++ {
		if _, err := decodePayload(payload[:cut]); err == nil {
			t.Fatalf("truncated payload (%d/%d bytes) accepted", cut, len(payload))
		}
	}
	// A unit index past the bound must be rejected at decode and append time.
	huge := Record{Type: RecUnitVerdict, UnitVerdict: unitVerdict(maxUnits, 1, false)}
	if err := huge.validate(); err == nil {
		t.Fatal("unit out of range passed validation")
	}
	negative := Record{Type: RecUnitVerdict, UnitVerdict: unitVerdict(-1, 1, false)}
	if err := negative.validate(); err == nil {
		t.Fatal("negative unit passed validation")
	}
}

func TestStoreUnitVerdictRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Interleave three units' streams the way a fleet round scheduler does.
	for tick := 20; tick <= 80; tick += 20 {
		for unit := 0; unit < 3; unit++ {
			if _, err := st.AppendUnitVerdict(unitVerdict(unit, tick+unit, unit == 1)); err != nil {
				t.Fatalf("append unit %d tick %d: %v", unit, tick, err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, rec, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	for unit := 0; unit < 3; unit++ {
		hist := rec.UnitVerdictHistory(unit)
		if len(hist) != 4 {
			t.Fatalf("unit %d: recovered %d verdicts, want 4", unit, len(hist))
		}
		for i, v := range hist {
			if want := 20*(i+1) + unit; v.Tick != want {
				t.Fatalf("unit %d verdict %d: tick %d, want %d", unit, i, v.Tick, want)
			}
			if v.Abnormal != (unit == 1) {
				t.Fatalf("unit %d verdict %d: abnormal %v", unit, i, v.Abnormal)
			}
		}
	}
	if hist := rec.UnitVerdictHistory(9); hist != nil {
		t.Fatalf("unknown unit returned %d verdicts", len(hist))
	}
	ticks := rec.UnitDurableTicks()
	for unit := 0; unit < 3; unit++ {
		if ticks[unit] != 80+unit {
			t.Fatalf("unit %d durable tick %d, want %d", unit, ticks[unit], 80+unit)
		}
	}
}

func TestFleetPersisterDedupe(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fp := NewFleetPersister(st, rec)
	push := func(unit, tick int) {
		var v monitor.Verdict
		v.Tick = tick
		v.Start = tick - 19
		v.Size = 20
		v.AbnormalDB = -1
		fp.Unit(unit).PersistVerdict(&v, monitor.PersistContext{})
	}
	push(0, 20)
	push(0, 40)
	push(5, 20)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, rec2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	fp2 := NewFleetPersister(st2, rec2)
	if got := fp2.DurableTick(0); got != 40 {
		t.Fatalf("unit 0 durable tick %d, want 40", got)
	}
	if got := fp2.DurableTick(5); got != 20 {
		t.Fatalf("unit 5 durable tick %d, want 20", got)
	}
	// Regenerated catch-up verdicts at or below the horizon are suppressed;
	// fresh ticks append and advance it.
	push2 := func(unit, tick int) {
		var v monitor.Verdict
		v.Tick = tick
		v.Start = tick - 19
		v.Size = 20
		v.AbnormalDB = -1
		fp2.Unit(unit).PersistVerdict(&v, monitor.PersistContext{})
	}
	push2(0, 20)
	push2(0, 40)
	push2(0, 60)
	push2(5, 40)
	status := fp2.Status().(FleetStatus)
	if status.Suppressed != 2 {
		t.Fatalf("suppressed %d, want 2", status.Suppressed)
	}
	if status.Verdicts != 2 {
		t.Fatalf("verdicts %d, want 2", status.Verdicts)
	}
	if fp2.DurableTick(0) != 60 || fp2.DurableTick(5) != 40 {
		t.Fatalf("horizons did not advance: %d, %d", fp2.DurableTick(0), fp2.DurableTick(5))
	}
	if err := fp2.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// A data dir written by a build that journaled one unit as RecVerdict
// beside a RecCounters sample per verdict still opens: each RecVerdict is
// unit 0's verdict, each RecCounters is skipped, and the journal's dedupe
// horizon for unit 0 covers them.
func TestLegacyVerdictRecordsAreUnitZero(t *testing.T) {
	dir := t.TempDir()
	st, _ := openClean(t, dir, Options{Fsync: FsyncNever})
	legacy := []Record{
		{Type: RecVerdict, Verdict: unitVerdict(0, 20, false).Verdict},
		{Type: RecCounters, Counters: CountersRecord{GapCells: 3}},
		{Type: RecVerdict, Verdict: unitVerdict(0, 40, true).Verdict},
		{Type: RecCounters, Counters: CountersRecord{GapCells: 5}},
	}
	for i := range legacy {
		if _, err := st.append(&legacy[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.AppendUnitVerdict(unitVerdict(1, 40, false)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec := openClean(t, dir, Options{Fsync: FsyncNever})
	defer st2.Close()
	hist := rec.UnitVerdictHistory(0)
	if len(hist) != 2 || hist[0].Tick != 20 || hist[1].Tick != 40 || !hist[1].Abnormal {
		t.Fatalf("unit 0 history %+v, want the two legacy verdicts", hist)
	}
	if hist := rec.UnitVerdictHistory(1); len(hist) != 1 || hist[0].Tick != 40 {
		t.Fatalf("unit 1 history %+v", hist)
	}
	if got := rec.UnitDurableTicks(); !reflect.DeepEqual(got, map[int]int{0: 40, 1: 40}) {
		t.Fatalf("durable ticks %v", got)
	}
	fp := NewFleetPersister(st2, rec)
	for _, tick := range []int{40, 60} {
		var v monitor.Verdict
		v.Tick, v.Start, v.Size, v.AbnormalDB = tick, tick-19, 20, -1
		fp.Unit(0).PersistVerdict(&v, monitor.PersistContext{})
	}
	if s := fp.Status().(FleetStatus); s.Suppressed != 1 || s.Verdicts != 1 {
		t.Fatalf("status %+v: want the legacy tick suppressed and the new one journaled", s)
	}
}

// DurableTick is the newest tick over every unit's verdicts and the
// snapshot: the tick a node stamps into the epoch record it adopts.
func TestRecoveredDurableTickCoversEveryUnit(t *testing.T) {
	dir := t.TempDir()
	st, _ := openClean(t, dir, Options{Fsync: FsyncNever})
	for _, uv := range []UnitVerdictRecord{unitVerdict(0, 40, false), unitVerdict(3, 80, false), unitVerdict(0, 60, false)} {
		if _, err := st.AppendUnitVerdict(uv); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openCleanAndClose(t, dir)
	if got := rec.DurableTick(); got != 80 {
		t.Fatalf("durable tick %d, want unit 3's 80", got)
	}
	rec.Snapshot = &SnapshotState{Monitor: &monitor.PersistentState{Tick: 95}}
	if got := rec.DurableTick(); got != 95 {
		t.Fatalf("durable tick %d, want the snapshot's 95", got)
	}
}
