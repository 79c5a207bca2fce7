package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbcatcher/internal/store"
)

// fastCfg returns a tailer config tuned for tests: a short client timeout
// so hang faults resolve quickly.
func fastCfg(primary, dir string) Config {
	return Config{
		Primary: primary,
		Dir:     dir,
		Client:  &http.Client{Timeout: 300 * time.Millisecond},
		Seed:    42,
	}
}

// primaryWithRecords opens a primary store and appends n feedback records.
func primaryWithRecords(t *testing.T, opts store.Options, n int) *store.Store {
	t.Helper()
	st, _, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < n; i++ {
		if _, err := st.AppendFeedback(store.FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// stepUntilCaughtUp drives Step until the tailer reports caught-up, with a
// bounded pass budget so a divergence fails fast instead of hanging.
func stepUntilCaughtUp(t *testing.T, tl *Tailer, passes int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < passes; i++ {
		err := tl.Step(ctx)
		if st := tl.Status(); err == nil && st.CaughtUp {
			return
		}
	}
	t.Fatalf("not caught up after %d passes: %+v", passes, tl.Status())
}

// storeRecords opens dir as a store, as a promotion does, and returns the
// records it recovers. Opening a log that ends in whole records only
// reads it, so the primary's live directory can be read this way too.
func storeRecords(t *testing.T, dir string) []store.SeqRecord {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return rec.Records
}

// mirrorRecordsEqualPrimary asserts the mirror, opened as a store, holds
// exactly the primary's records, and returns them.
func mirrorRecordsEqualPrimary(t *testing.T, st *store.Store, mirror string) []store.SeqRecord {
	t.Helper()
	got, want := storeRecords(t, mirror), storeRecords(t, st.Dir())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mirror holds %d records, the primary %d:\n got  %+v\n want %+v", len(got), len(want), got, want)
	}
	return got
}

// mirrorEqualsPrimary asserts every advertised segment's committed bytes
// are byte-identical between the primary's directory and the mirror.
func mirrorEqualsPrimary(t *testing.T, st *store.Store, mirror string) {
	t.Helper()
	m, err := st.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range m.Segments {
		want, err := os.ReadFile(filepath.Join(st.Dir(), seg.Name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(mirror, seg.Name))
		if err != nil {
			t.Fatalf("mirror missing %s: %v", seg.Name, err)
		}
		if !bytes.Equal(got, want[:seg.Size]) {
			t.Fatalf("mirror %s diverges from primary (%d vs %d committed bytes)", seg.Name, len(got), seg.Size)
		}
	}
}

func TestTailerMirrorsByteIdentical(t *testing.T) {
	// Small segments force several rotations, so the catch-up spans sealed
	// and active segments.
	st := primaryWithRecords(t, store.Options{Fsync: store.FsyncAlways, SegmentBytes: 128}, 30)
	srv := httptest.NewServer(NewServer(st).Handler())
	defer srv.Close()

	dir := t.TempDir()
	cfg := fastCfg(srv.URL, dir)
	cfg.MaxChunk = 64 // multiple chunks per segment
	tl, err := NewTailer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilCaughtUp(t, tl, 3)

	got := mirrorRecordsEqualPrimary(t, st, dir)
	if len(got) != 30 {
		t.Fatalf("mirrored %d records, want 30", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.Feedback.Start != i {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	mirrorEqualsPrimary(t, st, dir)

	// More appends on the primary: the next pass tails just the delta.
	for i := 30; i < 45; i++ {
		if _, err := st.AppendFeedback(store.FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	stepUntilCaughtUp(t, tl, 3)
	if got := mirrorRecordsEqualPrimary(t, st, dir); len(got) != 45 {
		t.Fatalf("mirrored %d records after delta, want 45", len(got))
	}
	mirrorEqualsPrimary(t, st, dir)

	// A restarted follower resumes from its mirror: it verifies the local
	// records (no network), then tailing continues without duplicates.
	tl2, err := NewTailer(fastCfg(srv.URL, dir))
	if err != nil {
		t.Fatal(err)
	}
	stepUntilCaughtUp(t, tl2, 3)
	if a := tl2.Status().Applied; a != 45 {
		t.Fatalf("resumed follower applied %d records, want 45", a)
	}
	if got := mirrorRecordsEqualPrimary(t, st, dir); len(got) != 45 {
		t.Fatalf("resumed mirror holds %d records, want 45", len(got))
	}
	mirrorEqualsPrimary(t, st, dir)
}

// faultScript wraps the replication handler with deterministic injected
// faults keyed by request count: 5xx bursts, a truncated segment body, and
// a hang longer than the client timeout.
type faultScript struct {
	inner http.Handler
	mu    sync.Mutex
	n     int
}

func (f *faultScript) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.n++
	n := f.n
	f.mu.Unlock()
	switch {
	case n%7 == 2:
		http.Error(w, "injected outage", http.StatusServiceUnavailable)
		return
	case n == 5:
		// Hang past the client timeout: the tailer must cut the fetch
		// loose and retry rather than wedge.
		time.Sleep(600 * time.Millisecond)
		http.Error(w, "late", http.StatusServiceUnavailable)
		return
	case n == 9 && r.URL.Path != "/replicate/manifest":
		// Truncated body: claim a full response, deliver half. The
		// follower's frame verification must reject the torn tail and
		// refetch — never mirror it.
		rec := httptest.NewRecorder()
		f.inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body[:len(body)/2])
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestTailerSurvivesInjectedFaults(t *testing.T) {
	st := primaryWithRecords(t, store.Options{Fsync: store.FsyncAlways, SegmentBytes: 128}, 40)
	srv := httptest.NewServer(&faultScript{inner: NewServer(st).Handler()})
	defer srv.Close()

	dir := t.TempDir()
	cfg := fastCfg(srv.URL, dir)
	cfg.MaxChunk = 64
	tl, err := NewTailer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilCaughtUp(t, tl, 20)

	got := mirrorRecordsEqualPrimary(t, st, dir)
	if len(got) != 40 {
		t.Fatalf("mirrored %d records through faults, want 40", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.Feedback.Start != i {
			t.Fatalf("record %d diverged under faults: %+v", i, r)
		}
	}
	mirrorEqualsPrimary(t, st, dir)
}

func TestTailerSnapshotRestartAfterCompaction(t *testing.T) {
	dirP := t.TempDir()
	st, _, err := store.Open(dirP, store.Options{Fsync: store.FsyncAlways, SegmentBytes: 64, RetainSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AdoptEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := st.AppendFeedback(store.FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewServer(st).Handler())
	defer srv.Close()

	// The follower catches up fully, then goes dark while the primary
	// writes far ahead and compacts.
	dirF := t.TempDir()
	tl, err := NewTailer(fastCfg(srv.URL, dirF))
	if err != nil {
		t.Fatal(err)
	}
	stepUntilCaughtUp(t, tl, 3)
	if len(mirrorRecordsEqualPrimary(t, st, dirF)) == 0 {
		t.Fatal("no records before the dark period")
	}

	for i := 10; i < 60; i++ {
		if _, err := st.AppendFeedback(store.FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot(store.SnapshotState{Seq: st.LastSeq(), Feedback: []store.FeedbackRecord{{Start: 59}}}); err != nil {
		t.Fatal(err)
	}
	m, err := st.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Segments[0].Base <= tl.Status().Applied+1 {
		t.Fatalf("compaction did not pass the follower (lowest base %d, applied %d)", m.Segments[0].Base, tl.Status().Applied)
	}

	// The next pass must take the clean restart-from-snapshot path.
	stepUntilCaughtUp(t, tl, 3)
	status := tl.Status()
	if status.SnapshotRestarts != 1 {
		t.Fatalf("status %+v; want exactly one snapshot restart", status)
	}
	if status.Applied != 61 || !status.CaughtUp {
		t.Fatalf("status after restart %+v", status)
	}
	// Everything the snapshot does not cover arrived as records, in order.
	var above []store.SeqRecord
	for _, r := range storeRecords(t, dirP) {
		if r.Seq > store.LoadSnapshotFile(dirF).Seq {
			above = append(above, r)
		}
	}
	if got := storeRecords(t, dirF); !reflect.DeepEqual(got, above) {
		t.Fatalf("mirror after snapshot restart holds %+v, want the primary's records above its snapshot %+v", got, above)
	}

	// The mirror is a valid store: promotion recovers snapshot + suffix
	// and the epoch carried over.
	pst, rec, epoch, err := Promote(dirF, store.Options{Fsync: store.FsyncAlways}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	if rec.Snapshot == nil || rec.Snapshot.Seq != 61 {
		t.Fatalf("promoted recovery snapshot %+v", rec.Snapshot)
	}
	if fb := rec.FeedbackRecords(); len(fb) != 1 || fb[0].Start != 59 {
		t.Fatalf("promoted feedback %+v", fb)
	}
}

// snapshotPrimary opens a primary store with n feedback records and a
// snapshot covering them.
func snapshotPrimary(t *testing.T, n int) *store.Store {
	t.Helper()
	st := primaryWithRecords(t, store.Options{Fsync: store.FsyncAlways}, n)
	if err := st.WriteSnapshot(store.SnapshotState{Seq: st.LastSeq(), Feedback: []store.FeedbackRecord{{Start: n - 1}}}); err != nil {
		t.Fatal(err)
	}
	return st
}

// A tailer that has caught up with a snapshotting primary holds that
// primary's latest snapshot beside the mirrored segments, installed
// without a reset: every record is mirrored exactly once.
func TestTailerMirrorsPrimarySnapshot(t *testing.T) {
	st := snapshotPrimary(t, 20)
	srv := httptest.NewServer(NewServer(st).Handler())
	defer srv.Close()
	dir := t.TempDir()
	tl, err := NewTailer(fastCfg(srv.URL, dir))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		stepUntilCaughtUp(t, tl, 3)
		want := store.LoadSnapshotFile(st.Dir())
		if got := store.LoadSnapshotFile(dir); want == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: mirror snapshot %+v, want the primary's %+v", round, got, want)
		}
		mirrorEqualsPrimary(t, st, dir)
		// The primary moves on and snapshots again.
		for i := 0; i < 5; i++ {
			if _, err := st.AppendFeedback(store.FeedbackRecord{Start: 20 + i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.WriteSnapshot(store.SnapshotState{Seq: st.LastSeq(), Feedback: []store.FeedbackRecord{{Start: 24}}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := tl.Status().SnapshotRestarts; n != 0 {
		t.Fatalf("%d snapshot restarts; mirroring a snapshot is not a reset", n)
	}
	for i, r := range storeRecords(t, dir) {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: mirrored out of order or twice", i, r.Seq)
		}
	}
}

// A snapshot whose Seq is above what the tailer has applied (the primary
// snapshotted again between the manifest and the fetch) is not installed:
// the mirror would claim records it does not hold. The next pass with a
// covered snapshot installs it.
func TestTailerSkipsSnapshotPastApplied(t *testing.T) {
	st := snapshotPrimary(t, 20)
	inner := NewServer(st).Handler()
	var ahead atomic.Bool
	ahead.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/replicate/snapshot" || !ahead.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		blob, err := st.SnapshotBlob()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var snap store.SnapshotState
		if err := json.Unmarshal(blob, &snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		snap.Seq = st.LastSeq() + 5
		_ = json.NewEncoder(w).Encode(snap)
	}))
	defer srv.Close()
	dir := t.TempDir()
	tl, err := NewTailer(fastCfg(srv.URL, dir))
	if err != nil {
		t.Fatal(err)
	}
	stepUntilCaughtUp(t, tl, 3)
	if got := store.LoadSnapshotFile(dir); got != nil {
		t.Fatalf("installed a snapshot at seq %d with %d records applied", got.Seq, tl.Status().Applied)
	}
	mirrorEqualsPrimary(t, st, dir)

	ahead.Store(false)
	stepUntilCaughtUp(t, tl, 3)
	if got := store.LoadSnapshotFile(dir); got == nil || got.Seq != st.LastSeq() {
		t.Fatalf("mirror snapshot %+v after a covered one was served, want seq %d", got, st.LastSeq())
	}
}

func TestTailerRefusesStalePrimary(t *testing.T) {
	// Primary A at epoch 5; the follower mirrors it (including the epoch
	// record).
	dirA := t.TempDir()
	stA, _, err := store.Open(dirA, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	if err := stA.AdoptEpoch(5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := stA.AppendFeedback(store.FeedbackRecord{Start: 1}); err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(NewServer(stA).Handler())
	defer srvA.Close()

	dirF := t.TempDir()
	tl, err := NewTailer(fastCfg(srvA.URL, dirF))
	if err != nil {
		t.Fatal(err)
	}
	stepUntilCaughtUp(t, tl, 3)
	if e := tl.Status().Epoch; e != 5 {
		t.Fatalf("observed epoch %d, want 5", e)
	}

	// Primary B is a stale node at epoch 3. A restarted follower over the
	// same mirror must refuse it: its own records prove epoch 5 exists.
	stB := primaryWithRecords(t, store.Options{Fsync: store.FsyncAlways}, 1)
	if err := stB.AdoptEpoch(3, 0); err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(NewServer(stB).Handler())
	defer srvB.Close()
	tl2, err := NewTailer(fastCfg(srvB.URL, dirF))
	if err != nil {
		t.Fatal(err)
	}
	err = tl2.Step(context.Background())
	if !errors.Is(err, ErrStalePrimary) {
		t.Fatalf("tailing a stale primary: %v, want ErrStalePrimary", err)
	}
	if tl2.Status().ConsecutiveFailures != 1 {
		t.Fatalf("status %+v", tl2.Status())
	}
}

func TestFenceEndpointAndPromotion(t *testing.T) {
	stOld, _, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer stOld.Close()
	if err := stOld.AdoptEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(stOld).Handler())
	defer srv.Close()
	ctx := context.Background()

	// A stale fence (not above the primary's epoch) is refused: the node
	// stays primary.
	if err := FenceOldPrimary(ctx, nil, srv.URL, 1); err == nil {
		t.Fatal("stale fence accepted")
	}
	if _, err := stOld.AppendFeedback(store.FeedbackRecord{}); err != nil {
		t.Fatalf("primary wrongly fenced: %v", err)
	}

	// Promotion elsewhere adopts epoch 2 and fences the old primary; its
	// post-demotion writes must be rejected.
	if err := FenceOldPrimary(ctx, nil, srv.URL, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := stOld.AppendFeedback(store.FeedbackRecord{}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("post-demotion append: %v, want ErrFenced", err)
	}

	// Malformed fence documents are rejected outright.
	for _, body := range []string{"", "{", `{"epoch":0}`, `{"epoch":-4}`} {
		resp, err := http.Post(srv.URL+"/replicate/fence", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("fence body %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestServerSegmentEndpointValidation(t *testing.T) {
	st := primaryWithRecords(t, store.Options{Fsync: store.FsyncAlways}, 3)
	srv := httptest.NewServer(NewServer(st).Handler())
	defer srv.Close()
	m, err := st.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	seg := m.Segments[0].Name
	for path, want := range map[string]int{
		"/replicate/segment/" + seg:                        http.StatusOK,
		"/replicate/segment/" + seg + "?offset=abc":        http.StatusBadRequest,
		"/replicate/segment/" + seg + "?offset=-1":         http.StatusBadRequest,
		"/replicate/segment/notasegment":                   http.StatusBadRequest,
		"/replicate/segment/" + store.SegmentName(999):     http.StatusGone,
		"/replicate/segment/wal-0000000000000000001.seg":   http.StatusBadRequest, // 19 digits
		"/replicate/snapshot":                              http.StatusNotFound,   // none written yet
		"/replicate/segment/" + seg + "?offset=1000000000": http.StatusOK,         // past end: empty, not an error
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestReplicationLagReporting covers both sides of the lag surface: the
// tailer's BytesBehind/SegmentsBehind against the primary's manifest, and
// the primary's per-peer progress table fed by the fetch pattern.
func TestReplicationLagReporting(t *testing.T) {
	st := primaryWithRecords(t, store.Options{Fsync: store.FsyncAlways, SegmentBytes: 128}, 30)
	rs := NewServer(st)
	srv := httptest.NewServer(rs.Handler())
	defer srv.Close()

	tl, err := NewTailer(fastCfg(srv.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if s := tl.Status(); s.BytesBehind != 0 || s.SegmentsBehind != 0 {
		t.Fatalf("lag before first contact: %+v", s)
	}
	stepUntilCaughtUp(t, tl, 3)
	if s := tl.Status(); s.BytesBehind != 0 || s.SegmentsBehind != 0 || !s.CaughtUp {
		t.Fatalf("caught-up tailer reports lag: %+v", s)
	}

	peers := rs.Peers()
	if len(peers) != 1 {
		t.Fatalf("peers = %+v", peers)
	}
	m, err := st.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	var committed int64
	for _, seg := range m.Segments {
		committed += seg.Size
	}
	p := peers[0]
	if p.BytesBehind != 0 || p.SegmentsBehind != 0 || p.ServedBytes != committed {
		t.Fatalf("caught-up peer = %+v (committed %d)", p, committed)
	}
	if p.LastContactMsAgo < 0 || p.LastContactMsAgo > 60_000 {
		t.Fatalf("last contact age = %d", p.LastContactMsAgo)
	}

	// New appends the follower has not fetched yet: the primary's view of
	// the peer falls behind by exactly the new committed bytes, and the
	// tailer's next manifest poll reports the same gap before catch-up.
	before := committed
	for i := 0; i < 10; i++ {
		if _, err := st.AppendFeedback(store.FeedbackRecord{Start: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	m, err = st.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	committed = 0
	for _, seg := range m.Segments {
		committed += seg.Size
	}
	delta := committed - before
	if delta <= 0 {
		t.Fatalf("appends committed no bytes")
	}
	p = rs.Peers()[0]
	if p.BytesBehind != delta || p.SegmentsBehind == 0 {
		t.Fatalf("stale peer = %+v, want %d bytes behind", p, delta)
	}

	stepUntilCaughtUp(t, tl, 3)
	p = rs.Peers()[0]
	if p.BytesBehind != 0 || p.SegmentsBehind != 0 {
		t.Fatalf("peer after catch-up = %+v", p)
	}

	block, ok := rs.StatusBlock().(map[string]interface{})
	if !ok || block["peers"] == nil || block["lastSeq"] != m.LastSeq {
		t.Fatalf("status block = %#v", block)
	}
}
