package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// crashCase is one simulated crash signature applied to a healthy data
// directory. Every case must recover to a usable store: Open succeeds, the
// surviving prefix is intact, appends work, and a second Open sees a clean
// directory again.
type crashCase struct {
	name string
	// corrupt damages the directory after the healthy history is written.
	corrupt func(t *testing.T, dir string)
	// wantRecords is the record count recovery must surface (-1 = don't
	// check an exact count, verify returns instead).
	wantRecords int
	// wantSnapshot is whether a snapshot must survive.
	wantSnapshot bool
	// check inspects the post-recovery metrics and recovered state.
	check func(t *testing.T, dir string, m Metrics, rec *Recovered)
}

// seedHealthyDir writes a known history: a snapshot at seq 3, then three
// more counter records (seqs 4..6) in the live segment.
func seedHealthyDir(t *testing.T, dir string) {
	t.Helper()
	st, _ := openClean(t, dir, Options{Fsync: FsyncAlways})
	for i := 1; i <= 3; i++ {
		if _, err := st.AppendFeedback(FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot(SnapshotState{Seq: 3, Feedback: []FeedbackRecord{{Start: 3}}}); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 6; i++ {
		if _, err := st.AppendFeedback(FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1].path
}

func truncateFile(t *testing.T, path string, drop int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-drop); err != nil {
		t.Fatal(err)
	}
}

func flipLastPayloadByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCrashMatrix(t *testing.T) {
	cases := []crashCase{
		{
			name: "torn final record",
			corrupt: func(t *testing.T, dir string) {
				// A crash mid-write leaves a partial frame at the tail.
				truncateFile(t, lastSegment(t, dir), 3)
			},
			wantRecords:  5, // seq 6 lost
			wantSnapshot: true,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				if !m.TornTail {
					t.Error("torn tail not reported")
				}
				if m.TruncatedBytes == 0 {
					t.Error("no bytes truncated")
				}
			},
		},
		{
			name: "torn frame header",
			corrupt: func(t *testing.T, dir string) {
				seg := lastSegment(t, dir)
				f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				// 4 bytes: less than a frame header.
				if _, err := f.Write([]byte{9, 9, 9, 9}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			wantRecords:  6,
			wantSnapshot: true,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				if !m.TornTail || m.TruncatedBytes != 4 {
					t.Errorf("torn header: tail=%v truncated=%d", m.TornTail, m.TruncatedBytes)
				}
			},
		},
		{
			name: "bad CRC on final record",
			corrupt: func(t *testing.T, dir string) {
				flipLastPayloadByte(t, lastSegment(t, dir))
			},
			wantRecords:  5,
			wantSnapshot: true,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				if m.CRCErrors != 1 {
					t.Errorf("CRCErrors = %d, want 1", m.CRCErrors)
				}
			},
		},
		{
			name: "corruption mid-log drops later segments",
			corrupt: func(t *testing.T, dir string) {
				// Corrupt the FIRST segment; the second (live) segment's
				// records can no longer be trusted to follow contiguously
				// and must be dropped.
				segs, err := listSegments(dir)
				if err != nil || len(segs) < 2 {
					t.Fatalf("want >= 2 segments, have %d (err=%v)", len(segs), err)
				}
				flipLastPayloadByte(t, segs[0].path)
			},
			wantRecords: -1,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				if m.DroppedSegments == 0 {
					t.Error("orphaned segment not dropped")
				}
				for _, r := range rec.Records {
					if r.Feedback.Start > 2 {
						t.Errorf("record %d survived past the corruption point", r.Seq)
					}
				}
			},
		},
		{
			name: "empty segment removed",
			corrupt: func(t *testing.T, dir string) {
				// A crash between segment creation and the first append.
				if err := os.WriteFile(segmentPath(dir, 7), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords:  6,
			wantSnapshot: true,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				if _, err := os.Stat(segmentPath(dir, 7)); !os.IsNotExist(err) {
					t.Error("empty leftover segment not removed")
				}
			},
		},
		{
			name: "stale snapshot with newer WAL",
			corrupt: func(t *testing.T, dir string) {
				// Nothing to damage: the seeded dir already has a snapshot
				// at seq 3 and WAL records through seq 6. Recovery must
				// surface both so the deltas replay on top.
			},
			wantRecords:  6,
			wantSnapshot: true,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				if rec.Snapshot.Seq != 3 {
					t.Errorf("snapshot seq = %d, want 3", rec.Snapshot.Seq)
				}
				newer := 0
				for _, r := range rec.Records {
					if r.Seq > rec.Snapshot.Seq {
						newer++
					}
				}
				if newer != 3 {
					t.Errorf("%d post-snapshot records, want 3", newer)
				}
			},
		},
		{
			name: "corrupt snapshot degrades to WAL-only",
			corrupt: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("{half a docu"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords:  6,
			wantSnapshot: false,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				if !m.SnapshotCorrupt {
					t.Error("snapshot corruption not reported")
				}
			},
		},
		{
			name: "wrong-schema snapshot ignored",
			corrupt: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte(`{"schema":"somebody-else/9"}`), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords:  6,
			wantSnapshot: false,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				if !m.SnapshotCorrupt {
					t.Error("foreign snapshot not reported as corrupt")
				}
			},
		},
		{
			name: "leftover snapshot temp file removed",
			corrupt: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, snapshotTmp), []byte("{torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords:  6,
			wantSnapshot: true,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				// The tmp must be gone so a future rename can't resurrect it.
			},
		},
		{
			name: "insane length prefix treated as corruption",
			corrupt: func(t *testing.T, dir string) {
				seg := lastSegment(t, dir)
				f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				var hdr [8]byte
				binary.LittleEndian.PutUint32(hdr[0:], maxRecordBytes+1)
				binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(nil))
				if _, err := f.Write(hdr[:]); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			wantRecords:  6,
			wantSnapshot: true,
			check: func(t *testing.T, dir string, m Metrics, rec *Recovered) {
				if !m.TornTail {
					t.Error("insane length not treated as tail damage")
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Tiny segments so the healthy history spans multiple files.
			seedSmall := Options{Fsync: FsyncAlways, SegmentBytes: 40, RetainSegments: 100}
			st, _ := openClean(t, dir, seedSmall)
			for i := 1; i <= 3; i++ {
				if _, err := st.AppendFeedback(FeedbackRecord{Start: i}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.WriteSnapshot(SnapshotState{Seq: 3, Feedback: []FeedbackRecord{{Start: 3}}}); err != nil {
				t.Fatal(err)
			}
			for i := 4; i <= 6; i++ {
				if _, err := st.AppendFeedback(FeedbackRecord{Start: i}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			tc.corrupt(t, dir)

			// Recovery must succeed, whatever the damage.
			st2, rec := openClean(t, dir, Options{Fsync: FsyncAlways})
			m := st2.Metrics()
			if tc.wantRecords >= 0 && len(rec.Records) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(rec.Records), tc.wantRecords)
			}
			if tc.wantRecords >= 0 && (rec.Snapshot != nil) != tc.wantSnapshot {
				t.Fatalf("snapshot survived = %v, want %v", rec.Snapshot != nil, tc.wantSnapshot)
			}
			if tc.check != nil {
				tc.check(t, dir, m, rec)
			}
			// Surviving records form a contiguous 1-based prefix ordering.
			for i := 1; i < len(rec.Records); i++ {
				if rec.Records[i].Seq != rec.Records[i-1].Seq+1 {
					t.Fatalf("non-contiguous recovery at index %d", i)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); !os.IsNotExist(err) {
				t.Fatal("snapshot temp file survived recovery")
			}

			// The recovered store accepts appends and a clean reopen sees
			// them: damage never leaves the directory wedged.
			seq, err := st2.AppendFeedback(FeedbackRecord{Start: 99})
			if err != nil {
				t.Fatalf("post-recovery append: %v", err)
			}
			if len(rec.Records) > 0 && seq != rec.Records[len(rec.Records)-1].Seq+1 {
				t.Fatalf("post-recovery seq %d does not extend recovered tail %d", seq, rec.Records[len(rec.Records)-1].Seq)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3, rec3 := openClean(t, dir, Options{})
			m3 := st3.Metrics()
			if m3.TornTail || m3.CRCErrors > 0 || m3.TruncatedBytes > 0 {
				t.Fatalf("second recovery still sees damage: %+v", m3)
			}
			found := false
			for _, r := range rec3.Records {
				if r.Type == RecFeedback && r.Feedback.Start == 99 && r.Seq == seq {
					found = true
				}
			}
			if !found {
				t.Fatal("post-recovery append lost on reopen")
			}
			if err := st3.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// seedHealthyDir is exercised here so the helper stays honest if cases
// change around it.
func TestSeedHealthyDir(t *testing.T) {
	dir := t.TempDir()
	seedHealthyDir(t, dir)
	_, rec := openCleanAndClose(t, dir)
	if rec.Snapshot == nil || len(rec.Records) != 6 {
		t.Fatalf("seed produced snapshot=%v records=%d", rec.Snapshot != nil, len(rec.Records))
	}
}
