package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openClean(t *testing.T, dir string, opts Options) (*Store, *Recovered) {
	t.Helper()
	st, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, rec
}

func sampleRecords() []Record {
	return []Record{
		{Type: RecVerdict, Verdict: VerdictRecord{
			Tick: 40, Start: 20, Size: 20, AbnormalDB: 3, Expansions: 1,
			GapCells: 2, Abnormal: true, Health: 1, States: []uint8{0, 0, 0, 2, 0},
		}},
		{Type: RecVerdict, Verdict: VerdictRecord{
			Tick: 60, Start: 40, Size: 20, AbnormalDB: -1, Health: 0,
		}},
		{Type: RecFeedback, Feedback: FeedbackRecord{Start: 20, Size: 20, Predicted: true, Actual: false}},
		{Type: RecCounters, Counters: CountersRecord{
			GapCells: 7, MissedTicks: 1, Deactivations: 2, Reactivations: 1,
			DegradedVerdicts: 3, SkippedRounds: 1,
		}},
		{Type: RecThresholds, Thresholds: ThresholdsRecord{
			Tick: 60, Alpha: []float64{0.65, 0.7, 0.62}, Theta: 0.25, MaxTolerance: 2,
		}},
	}
}

// appendAll writes recs through the store's one append path, the legacy
// RecVerdict and RecCounters types (which only older builds wrote) too.
func appendAll(t *testing.T, st *Store, recs []Record) {
	t.Helper()
	for i := range recs {
		if _, err := st.append(&recs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestStoreRoundTripAllRecordTypes(t *testing.T) {
	dir := t.TempDir()
	st, rec := openClean(t, dir, Options{Fsync: FsyncAlways})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	want := sampleRecords()
	appendAll(t, st, want)
	if got := st.LastSeq(); got != uint64(len(want)) {
		t.Fatalf("LastSeq = %d, want %d", got, len(want))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendFeedback(FeedbackRecord{}); err == nil {
		t.Fatal("append after Close must fail")
	}

	st2, rec2 := openClean(t, dir, Options{})
	defer st2.Close()
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for i, sr := range rec2.Records {
		if sr.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, sr.Seq)
		}
		if !reflect.DeepEqual(sr.Record, want[i]) {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, sr.Record, want[i])
		}
	}
	// Appends continue the sequence, they don't restart it.
	seq, err := st2.AppendFeedback(FeedbackRecord{Start: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(want)+1) {
		t.Fatalf("post-recovery seq = %d, want %d", seq, len(want)+1)
	}
}

func TestStoreRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	st, _ := openClean(t, dir, Options{Fsync: FsyncNever, SegmentBytes: 64, RetainSegments: 1})
	for i := 0; i < 40; i++ {
		if _, err := st.AppendFeedback(FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	m := st.Metrics()
	if m.Rotations == 0 {
		t.Fatalf("no rotations with 64-byte segments: %+v", m)
	}
	segsBefore := countSegments(t, dir)
	if segsBefore < 3 {
		t.Fatalf("expected several segments, found %d", segsBefore)
	}
	// A snapshot covering everything compacts all but the retained tail.
	if err := st.WriteSnapshot(SnapshotState{Seq: st.LastSeq()}); err != nil {
		t.Fatal(err)
	}
	m = st.Metrics()
	if m.CompactedSegments == 0 {
		t.Fatal("snapshot did not compact covered segments")
	}
	segsAfter := countSegments(t, dir)
	if segsAfter >= segsBefore {
		t.Fatalf("segments %d -> %d, expected shrink", segsBefore, segsAfter)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery after compaction: snapshot + the retained record suffix.
	st2, rec := openClean(t, dir, Options{})
	defer st2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 40 {
		t.Fatalf("snapshot lost in compaction: %+v", rec.Snapshot)
	}
	if len(rec.Records) == 0 || len(rec.Records) >= 40 {
		t.Fatalf("retained records = %d, want a proper suffix", len(rec.Records))
	}
	last := rec.Records[len(rec.Records)-1]
	if last.Seq != 40 || last.Feedback.Start != 39 {
		t.Fatalf("suffix ends at %+v", last)
	}
	// The suffix is contiguous.
	for i := 1; i < len(rec.Records); i++ {
		if rec.Records[i].Seq != rec.Records[i-1].Seq+1 {
			t.Fatalf("sequence gap at %d", i)
		}
	}
}

func TestStoreSnapshotReplacedAtomically(t *testing.T) {
	dir := t.TempDir()
	st, _ := openClean(t, dir, Options{})
	if err := st.WriteSnapshot(SnapshotState{Seq: 0, Feedback: []FeedbackRecord{{Start: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(SnapshotState{Seq: 0, Feedback: []FeedbackRecord{{Start: 2}}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); !os.IsNotExist(err) {
		t.Fatal("temp snapshot left behind")
	}
	_, rec := openCleanAndClose(t, dir)
	if rec.Snapshot == nil || len(rec.Snapshot.Feedback) != 1 || rec.Snapshot.Feedback[0].Start != 2 {
		t.Fatalf("latest snapshot not recovered: %+v", rec.Snapshot)
	}
}

func TestStoreFsyncPolicies(t *testing.T) {
	for _, pol := range []Policy{FsyncAlways, FsyncEveryInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openClean(t, dir, Options{Fsync: pol})
			appendAll(t, st, sampleRecords())
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			m := st.Metrics()
			if pol == FsyncAlways && m.Syncs < 5 {
				t.Fatalf("always policy synced %d times for 5 appends", m.Syncs)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := openCleanAndClose(t, dir)
			if len(rec.Records) != 5 {
				t.Fatalf("recovered %d records under %s", len(rec.Records), pol)
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": FsyncAlways, "interval": FsyncEveryInterval, "never": FsyncNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("unknown policy must fail")
	}
}

func TestStoreOversizedRecordRejected(t *testing.T) {
	st, _ := openClean(t, t.TempDir(), Options{})
	defer st.Close()
	_, err := st.AppendThresholds(ThresholdsRecord{Alpha: make([]float64, maxAlphas+1)})
	if err == nil {
		t.Fatal("oversized record must be rejected")
	}
	// The store is still usable: size rejection is not a write failure.
	if _, err := st.AppendFeedback(FeedbackRecord{}); err != nil {
		t.Fatalf("store poisoned by an oversized record: %v", err)
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

func openCleanAndClose(t *testing.T, dir string) (Metrics, *Recovered) {
	t.Helper()
	st, rec := openClean(t, dir, Options{})
	m := st.Metrics()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return m, rec
}
