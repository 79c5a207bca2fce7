package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrFenced rejects writes on a store that has observed a newer primary
// epoch: some other node has been promoted, and anything this process
// appended after that point would fork the replicated history. Fencing is
// sticky for the process lifetime — the node must restart as a follower.
var ErrFenced = errors.New("store: fenced by a newer primary epoch")

// Policy selects when WAL appends are fsynced.
type Policy int

const (
	// FsyncEveryInterval (the default) syncs at most once per syncEvery
	// (100ms) of wall time, amortizing fsync cost over a burst of
	// appends; a crash can lose up to syncEvery of the newest records.
	FsyncEveryInterval Policy = iota
	// FsyncAlways syncs after every append: nothing acknowledged is ever
	// lost, at one fsync per record.
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache (and Close). A
	// crash can lose everything since the last rotation or snapshot.
	FsyncNever
)

// ParsePolicy maps the daemon's -fsync-policy flag values.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncEveryInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncEveryInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options tunes the store. The zero value is usable: interval fsync every
// 100ms, 1MiB segments, 2 retained closed segments.
type Options struct {
	// Fsync is the WAL durability policy.
	Fsync Policy
	// SegmentBytes caps a segment before rotation (default 1MiB).
	SegmentBytes int64
	// RetainSegments closed segments are kept even when fully covered by
	// a snapshot, so recent record history survives restarts (default 2).
	RetainSegments int
}

// syncEvery is the FsyncEveryInterval period.
const syncEvery = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.RetainSegments <= 0 {
		o.RetainSegments = 2
	}
	return o
}

// Metrics counts the store's activity and what recovery found. Counters
// are cumulative for the process; recovery fields describe the last Open.
type Metrics struct {
	Appends           uint64 `json:"appends"`
	Syncs             uint64 `json:"syncs"`
	Rotations         uint64 `json:"rotations"`
	Snapshots         uint64 `json:"snapshots"`
	CompactedSegments uint64 `json:"compactedSegments"`

	RecoveredRecords int   `json:"recoveredRecords"`
	DroppedSegments  int   `json:"droppedSegments"`
	TruncatedBytes   int64 `json:"truncatedBytes"`
	CRCErrors        int   `json:"crcErrors"`
	TornTail         bool  `json:"tornTail"`
	SnapshotCorrupt  bool  `json:"snapshotCorrupt"`
}

// Recovered is everything Open could read back from the data directory.
type Recovered struct {
	// Snapshot is the last durable point-in-time capture, nil when none
	// survived.
	Snapshot *SnapshotState
	// Records are all WAL records still on disk in sequence order —
	// including ones at or below Snapshot.Seq (they are history, useful
	// for rebuilding the verdict buffer) and ones above it (state deltas
	// that must be applied on top of the snapshot).
	Records []SeqRecord
}

// Store is the durable state store: a segmented WAL plus an atomically
// replaced snapshot, in one directory. It is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	wal     *wal
	metrics Metrics
	closed  bool

	epoch    uint64 // highest durably adopted fencing epoch (0 = never)
	fenced   bool   // a newer epoch exists elsewhere; writes are rejected
	fencedAt uint64 // the epoch that fenced us, for status reporting
	snapSeq  uint64 // WAL position of the live snapshot (0 = none)
	hasSnap  bool
}

// Open recovers whatever a previous process left in dir (creating it if
// needed) and returns the store ready for appends. Crash damage — torn
// final records, bad checksums, empty segments, a corrupt snapshot, a
// leftover snapshot temp file — is repaired, never fatal: Open only fails
// on environmental errors (permissions, I/O).
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	_ = os.Remove(filepath.Join(dir, snapshotTmp)) // interrupted snapshot write
	s := &Store{dir: dir, opts: opts}
	snap, corrupt := loadSnapshot(dir)
	s.metrics.SnapshotCorrupt = corrupt
	w, recs, err := openWAL(dir, opts, &s.metrics)
	if err != nil {
		return nil, nil, err
	}
	s.wal = w
	if snap != nil {
		s.snapSeq, s.hasSnap = snap.Seq, true
		s.epoch = snap.Epoch
	}
	// Epoch records are strictly monotonic, so the last one on disk (or
	// the snapshot's, if compaction dropped them all) is the current epoch.
	for _, r := range recs {
		if r.Type == RecEpoch && r.Epoch.Epoch > s.epoch {
			s.epoch = r.Epoch.Epoch
		}
	}
	return s, &Recovered{Snapshot: snap, Records: recs}, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Policy returns the configured fsync policy.
func (s *Store) Policy() Policy { return s.opts.Fsync }

func (s *Store) append(r *Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	if s.fenced {
		return 0, ErrFenced
	}
	return s.wal.append(r)
}

// AppendFeedback logs one DBA-marked judgment record.
func (s *Store) AppendFeedback(f FeedbackRecord) (uint64, error) {
	return s.append(&Record{Type: RecFeedback, Feedback: f})
}

// AppendThresholds logs an applied threshold swap.
func (s *Store) AppendThresholds(t ThresholdsRecord) (uint64, error) {
	return s.append(&Record{Type: RecThresholds, Thresholds: t})
}

// AppendUnitVerdict logs one unit's judgment verdict into the verdict
// journal.
func (s *Store) AppendUnitVerdict(u UnitVerdictRecord) (uint64, error) {
	return s.append(&Record{Type: RecUnitVerdict, UnitVerdict: u})
}

// AppendIncident logs one fleet round's incident-transition batch.
func (s *Store) AppendIncident(in IncidentRecord) (uint64, error) {
	return s.append(&Record{Type: RecIncident, Incident: in})
}

// AppendRelearn logs one relearning-supervisor lifecycle transition.
func (s *Store) AppendRelearn(l RelearnRecord) (uint64, error) {
	return s.append(&Record{Type: RecRelearn, Relearn: l})
}

// LastSeq returns the sequence number of the most recent append (0 before
// the first).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.nextSeq - 1
}

// Sync flushes buffered WAL appends to stable storage regardless of
// policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.wal.sync()
}

// WriteSnapshot atomically replaces the snapshot and compacts WAL segments
// it covers. The WAL is synced first (except under FsyncNever) so the
// snapshot never claims coverage of records less durable than itself. The
// store stamps the current fencing epoch into the snapshot so a standby
// bootstrapping from it inherits the epoch even after the RecEpoch record
// itself is compacted away.
func (s *Store) WriteSnapshot(st SnapshotState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.fenced {
		return ErrFenced
	}
	if s.opts.Fsync != FsyncNever {
		if err := s.wal.sync(); err != nil {
			return err
		}
	}
	st.Epoch = s.epoch
	if err := writeSnapshot(s.dir, &st); err != nil {
		return err
	}
	s.metrics.Snapshots++
	s.snapSeq, s.hasSnap = st.Seq, true
	s.wal.compact(st.Seq, s.opts.RetainSegments)
	return nil
}

// AdoptEpoch durably takes a fencing epoch strictly above the current one:
// the caller is about to act as primary, and the epoch record must hit
// stable storage before any write made under it, so the append is synced
// immediately regardless of policy. Tick is the newest durable collection
// tick at adoption (0 on a fresh store).
func (s *Store) AdoptEpoch(epoch uint64, tick int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.fenced {
		return ErrFenced
	}
	if epoch <= s.epoch {
		return fmt.Errorf("store: epoch %d not above current %d", epoch, s.epoch)
	}
	if _, err := s.wal.append(&Record{Type: RecEpoch, Epoch: EpochRecord{Epoch: epoch, Tick: tick}}); err != nil {
		return err
	}
	if err := s.wal.sync(); err != nil {
		return err
	}
	s.epoch = epoch
	return nil
}

// Fence marks the store demoted by a newer epoch adopted elsewhere. All
// further appends and snapshots fail with ErrFenced for the rest of the
// process lifetime. A fence at or below our own epoch is stale (we are the
// newer primary) and rejected.
func (s *Store) Fence(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch <= s.epoch {
		return fmt.Errorf("store: stale fence epoch %d (current %d)", epoch, s.epoch)
	}
	s.fenced = true
	if epoch > s.fencedAt {
		s.fencedAt = epoch
	}
	return nil
}

// SelfFence demotes the store on first-hand evidence of a peer serving at
// an epoch equal to or above our own. Unlike Fence — where an external
// poster must hold a strictly newer epoch to demote us — observing a peer
// primary at our *own* epoch already proves a fork (a partitioned double
// boot adopted the same epoch), and the only safe response is to stop
// writing on this side too. An epoch strictly below ours is a stale
// observation and rejected: we are the newer primary.
func (s *Store) SelfFence(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.epoch {
		return fmt.Errorf("store: stale self-fence epoch %d (current %d)", epoch, s.epoch)
	}
	s.fenced = true
	if epoch > s.fencedAt {
		s.fencedAt = epoch
	}
	return nil
}

// Epoch returns the current durably adopted fencing epoch (0 before the
// first adoption) and whether the store has been fenced by a newer one.
func (s *Store) Epoch() (epoch uint64, fenced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch, s.fenced
}

// Metrics returns a copy of the activity counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// Close flushes and closes the WAL. The store rejects further appends.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.close()
}
