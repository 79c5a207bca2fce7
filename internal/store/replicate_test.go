package store

import (
	"errors"
	"os"
	"reflect"
	"testing"
)

func TestEpochAdoptionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	st, rec := openClean(t, dir, Options{Fsync: FsyncAlways})
	if e := rec.LatestEpoch(); e != 0 {
		t.Fatalf("fresh dir LatestEpoch = %d", e)
	}
	if err := st.AdoptEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.AdoptEpoch(1, 0); err == nil {
		t.Fatal("re-adopting the same epoch must fail")
	}
	if err := st.AdoptEpoch(3, 42); err != nil {
		t.Fatal(err)
	}
	if e, fenced := st.Epoch(); e != 3 || fenced {
		t.Fatalf("Epoch() = %d, %v", e, fenced)
	}
	appendAll(t, st, sampleRecords())
	st.Close()

	st2, rec2 := openClean(t, dir, Options{})
	if e := rec2.LatestEpoch(); e != 3 {
		t.Fatalf("recovered LatestEpoch = %d, want 3", e)
	}
	if e, _ := st2.Epoch(); e != 3 {
		t.Fatalf("reopened store epoch = %d, want 3", e)
	}
	// The epoch records themselves replay with their adoption ticks intact.
	var epochs []EpochRecord
	for _, r := range rec2.Records {
		if r.Type == RecEpoch {
			epochs = append(epochs, r.Epoch)
		}
	}
	want := []EpochRecord{{Epoch: 1, Tick: 0}, {Epoch: 3, Tick: 42}}
	if !reflect.DeepEqual(epochs, want) {
		t.Fatalf("replayed epochs %+v, want %+v", epochs, want)
	}
	st2.Close()
}

func TestEpochSurvivesCompactionViaSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _ := openClean(t, dir, Options{Fsync: FsyncNever, SegmentBytes: 64, RetainSegments: 1})
	if err := st.AdoptEpoch(5, 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := st.AppendFeedback(FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction drops the segment holding the RecEpoch record; the
	// snapshot stamp must carry the epoch across.
	if err := st.WriteSnapshot(SnapshotState{Seq: st.LastSeq()}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, rec := openClean(t, dir, Options{})
	defer st2.Close()
	for _, r := range rec.Records {
		if r.Type == RecEpoch {
			t.Skip("epoch record survived compaction; snapshot path not exercised")
		}
	}
	if e := rec.LatestEpoch(); e != 5 {
		t.Fatalf("LatestEpoch after compaction = %d, want 5", e)
	}
	if e, _ := st2.Epoch(); e != 5 {
		t.Fatalf("store epoch after compaction = %d, want 5", e)
	}
}

func TestFenceRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	st, _ := openClean(t, dir, Options{Fsync: FsyncAlways})
	defer st.Close()
	if err := st.AdoptEpoch(2, 0); err != nil {
		t.Fatal(err)
	}
	// A stale fence (at or below our epoch) is rejected and changes nothing.
	if err := st.Fence(2); err == nil {
		t.Fatal("stale fence must be rejected")
	}
	if _, err := st.AppendFeedback(FeedbackRecord{}); err != nil {
		t.Fatalf("store wrongly fenced by stale epoch: %v", err)
	}
	if err := st.Fence(3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendFeedback(FeedbackRecord{}); !errors.Is(err, ErrFenced) {
		t.Fatalf("append on fenced store: %v, want ErrFenced", err)
	}
	if err := st.WriteSnapshot(SnapshotState{Seq: st.LastSeq()}); !errors.Is(err, ErrFenced) {
		t.Fatalf("snapshot on fenced store: %v, want ErrFenced", err)
	}
	if err := st.AdoptEpoch(9, 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("adopt on fenced store: %v, want ErrFenced", err)
	}
	if e, fenced := st.Epoch(); e != 2 || !fenced {
		t.Fatalf("Epoch() = %d, %v; want 2, fenced", e, fenced)
	}
}

func TestSelfFenceAcceptsEqualEpoch(t *testing.T) {
	dir := t.TempDir()
	st, _ := openClean(t, dir, Options{Fsync: FsyncAlways})
	defer st.Close()
	if err := st.AdoptEpoch(2, 0); err != nil {
		t.Fatal(err)
	}
	// A peer strictly below us is a stale observation: we are the newer
	// primary, and must not demote ourselves.
	if err := st.SelfFence(1); err == nil {
		t.Fatal("self-fence on a lower peer epoch must be rejected")
	}
	if _, err := st.AppendFeedback(FeedbackRecord{}); err != nil {
		t.Fatalf("store wrongly self-fenced: %v", err)
	}
	// Equal epoch is a fork (two primaries adopted the same epoch): unlike
	// the external Fence, first-hand SelfFence accepts it and stops writes.
	if err := st.SelfFence(2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendFeedback(FeedbackRecord{}); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after self-fence: %v, want ErrFenced", err)
	}
	if e, fenced := st.Epoch(); e != 2 || !fenced {
		t.Fatalf("Epoch() = %d, %v; want 2, fenced", e, fenced)
	}
}

func TestReplicationManifestAndReadSegmentAt(t *testing.T) {
	dir := t.TempDir()
	st, _ := openClean(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	defer st.Close()
	for i := 0; i < 20; i++ {
		if _, err := st.AppendFeedback(FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := st.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.LastSeq != 20 || m.HasSnapshot || len(m.Segments) < 2 {
		t.Fatalf("manifest %+v", m)
	}
	if m.Segments[0].Base != 1 || !m.Segments[0].Sealed {
		t.Fatalf("first segment %+v", m.Segments[0])
	}
	if last := m.Segments[len(m.Segments)-1]; last.Sealed {
		t.Fatalf("active segment advertised sealed: %+v", last)
	}
	// Segment names round-trip through the base parser.
	for _, seg := range m.Segments {
		base, ok := SegmentBase(seg.Name)
		if !ok || base != seg.Base {
			t.Fatalf("SegmentBase(%q) = %d, %v; want %d", seg.Name, base, ok, seg.Base)
		}
		if SegmentName(seg.Base) != seg.Name {
			t.Fatalf("SegmentName(%d) = %q, want %q", seg.Base, SegmentName(seg.Base), seg.Name)
		}
	}

	// Fetch every advertised segment in full and decode: the replicated
	// stream must be the store's own records, contiguous from seq 1.
	var all []SeqRecord
	for _, seg := range m.Segments {
		var off int64
		for off < seg.Size {
			chunk, err := st.ReadSegmentAt(seg.Name, off, 64)
			if err != nil {
				t.Fatalf("ReadSegmentAt(%s, %d): %v", seg.Name, off, err)
			}
			if len(chunk) == 0 {
				t.Fatalf("no progress at %s@%d (size %d)", seg.Name, off, seg.Size)
			}
			recs, consumed, err := DecodeFrames(chunk, uint64(len(all))+1)
			if err != nil || consumed != len(chunk) {
				t.Fatalf("DecodeFrames: consumed %d/%d, %v", consumed, len(chunk), err)
			}
			all = append(all, recs...)
			off += int64(consumed)
		}
	}
	if len(all) != 20 {
		t.Fatalf("replicated %d records, want 20", len(all))
	}
	for i, r := range all {
		if r.Seq != uint64(i+1) || r.Type != RecFeedback || r.Feedback.Start != i {
			t.Fatalf("record %d = %+v", i, r)
		}
	}

	// Reads at or past the committed size return nothing, not an error.
	last := m.Segments[len(m.Segments)-1]
	if b, err := st.ReadSegmentAt(last.Name, last.Size, 64); err != nil || len(b) != 0 {
		t.Fatalf("read at committed end: %d bytes, %v", len(b), err)
	}
	// Unknown segments are a restart-from-snapshot signal.
	if _, err := st.ReadSegmentAt(SegmentName(999), 0, 64); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("unknown segment: %v, want ErrNoSegment", err)
	}
	if _, err := st.ReadSegmentAt("../snapshot.json", 0, 64); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("path traversal name: %v, want ErrNoSegment", err)
	}
}

// TestReadSegmentAtFrameLargerThanMax pins the progress guarantee: when a
// single frame exceeds the chunk cap, the read returns that frame whole
// instead of an empty (stuck) response.
func TestReadSegmentAtFrameLargerThanMax(t *testing.T) {
	st, _ := openClean(t, t.TempDir(), Options{Fsync: FsyncAlways})
	defer st.Close()
	big := ThresholdsRecord{Tick: 1, Alpha: make([]float64, 64), Theta: 0.2, MaxTolerance: 1}
	if _, err := st.AppendThresholds(big); err != nil {
		t.Fatal(err)
	}
	m, err := st.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	seg := m.Segments[0]
	chunk, err := st.ReadSegmentAt(seg.Name, 0, 16) // far below the frame size
	if err != nil {
		t.Fatal(err)
	}
	recs, consumed, err := DecodeFrames(chunk, 1)
	if err != nil || len(recs) != 1 || int64(consumed) != seg.Size {
		t.Fatalf("oversized-frame read: %d recs, %d consumed, %v", len(recs), consumed, err)
	}
	if len(recs[0].Thresholds.Alpha) != 64 {
		t.Fatalf("decoded %d alphas", len(recs[0].Thresholds.Alpha))
	}
}

// TestSlowReaderRetentionBoundaries table-tests what a follower holding an
// offset into an old segment sees across RetainSegments settings after a
// covering snapshot compacts the log: either the segment is retained and
// the read succeeds, or it is gone and the follower gets the clean
// ErrNoSegment restart-from-snapshot signal — never a torn read or a
// false success.
func TestSlowReaderRetentionBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		retain int
	}{
		{"retain-1", 1},
		{"retain-2", 2},
		{"retain-4", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openClean(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 64, RetainSegments: tc.retain})
			defer st.Close()
			for i := 0; i < 40; i++ {
				if _, err := st.AppendFeedback(FeedbackRecord{Start: i}); err != nil {
					t.Fatal(err)
				}
			}
			before, err := st.ReplicationManifest()
			if err != nil {
				t.Fatal(err)
			}
			var sealedBefore []SegmentInfo
			for _, s := range before.Segments {
				if s.Sealed {
					sealedBefore = append(sealedBefore, s)
				}
			}
			if len(sealedBefore) <= tc.retain {
				t.Fatalf("need more than %d sealed segments, have %d", tc.retain, len(sealedBefore))
			}
			// The follower is "holding" an offset into the oldest segment
			// when a covering snapshot compacts.
			if err := st.WriteSnapshot(SnapshotState{Seq: st.LastSeq()}); err != nil {
				t.Fatal(err)
			}
			after, err := st.ReplicationManifest()
			if err != nil {
				t.Fatal(err)
			}
			if !after.HasSnapshot || after.SnapshotSeq != 40 {
				t.Fatalf("manifest after snapshot: %+v", after)
			}
			kept := make(map[string]bool)
			for _, s := range after.Segments {
				kept[s.Name] = true
			}
			sealedKept := 0
			for _, s := range sealedBefore {
				if kept[s.Name] {
					sealedKept++
				}
			}
			if sealedKept != tc.retain {
				t.Fatalf("retained %d sealed segments, want exactly %d", sealedKept, tc.retain)
			}
			for _, s := range sealedBefore {
				chunk, err := st.ReadSegmentAt(s.Name, 0, int(s.Size))
				if kept[s.Name] {
					if err != nil {
						t.Fatalf("read of retained %s: %v", s.Name, err)
					}
					if _, consumed, derr := DecodeFrames(chunk, s.Base); derr != nil || int64(consumed) != s.Size {
						t.Fatalf("retained %s decodes %d/%d bytes: %v", s.Name, consumed, s.Size, derr)
					}
				} else {
					if !errors.Is(err, ErrNoSegment) {
						t.Fatalf("read of compacted %s: %v, want ErrNoSegment", s.Name, err)
					}
				}
			}
			// A misaligned (mid-frame) offset into a retained segment is
			// reported as corruption, never silently returned as data.
			if len(sealedBefore) > 0 && kept[sealedBefore[len(sealedBefore)-1].Name] {
				name := sealedBefore[len(sealedBefore)-1].Name
				if chunk, err := st.ReadSegmentAt(name, 3, 1<<20); err == nil && len(chunk) > 0 {
					if _, _, derr := DecodeFrames(chunk, 1); derr == nil {
						t.Fatalf("mid-frame read of %s decoded cleanly", name)
					}
				}
			}
			// The advertised set stays contiguous and fetchable from the
			// snapshot boundary: every record above SnapshotSeq is present.
			lowest := after.Segments[0].Base
			if lowest > after.SnapshotSeq+1 {
				t.Fatalf("gap: lowest advertised base %d, snapshot seq %d", lowest, after.SnapshotSeq)
			}
		})
	}
}

func TestSnapshotBlobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _ := openClean(t, dir, Options{Fsync: FsyncAlways})
	if _, err := st.SnapshotBlob(); !os.IsNotExist(err) {
		t.Fatalf("blob before snapshot: %v, want not-exist", err)
	}
	if err := st.AdoptEpoch(4, 7); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(SnapshotState{Seq: 1, Feedback: []FeedbackRecord{{Start: 3}}}); err != nil {
		t.Fatal(err)
	}
	blob, err := st.SnapshotBlob()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	follower := t.TempDir()
	snap, err := InstallSnapshotBlob(follower, blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 1 || snap.Epoch != 4 || len(snap.Feedback) != 1 || snap.Feedback[0].Start != 3 {
		t.Fatalf("installed snapshot %+v", snap)
	}
	fst, rec := openClean(t, follower, Options{})
	defer fst.Close()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 1 || rec.LatestEpoch() != 4 {
		t.Fatalf("follower recovery from installed blob: %+v", rec.Snapshot)
	}
	// Garbage blobs are refused before touching the live snapshot.
	if _, err := InstallSnapshotBlob(follower, []byte("{")); err == nil {
		t.Fatal("corrupt blob must be rejected")
	}
	if _, err := InstallSnapshotBlob(follower, []byte(`{"schema":"other/9"}`)); err == nil {
		t.Fatal("wrong-schema blob must be rejected")
	}
}
