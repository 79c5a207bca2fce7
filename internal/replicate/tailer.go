package replicate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/store"
)

// Config tunes a follower tailer. Zero values get safe defaults.
type Config struct {
	// Primary is the primary's base URL (scheme://host:port).
	Primary string
	// Dir is the local directory the WAL is mirrored into — byte-identical
	// segment files plus the primary's latest snapshot, so a promotion is
	// just a store.Open over it that resumes at that snapshot.
	Dir string
	// Client issues the HTTP fetches (default: 5s-timeout client, so a
	// hung primary can never wedge the tailer).
	Client *http.Client
	// MaxChunk caps one segment fetch (default DefaultMaxChunk).
	MaxChunk int
	// Poll is the Run loop's manifest cadence (default 500ms).
	Poll time.Duration
	// StalenessBudget is how long without primary contact before Status
	// reports the follower stale (default 5s).
	StalenessBudget time.Duration
	// Seed keys the backoff jitter.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if c.MaxChunk <= 0 {
		c.MaxChunk = DefaultMaxChunk
	}
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	if c.StalenessBudget <= 0 {
		c.StalenessBudget = 5 * time.Second
	}
	return c
}

// Status is a point-in-time view of the tailer for probes and promotion
// decisions.
type Status struct {
	// Applied is the last record sequence the mirror holds.
	Applied uint64
	// PrimaryLastSeq is the primary's log extent at last contact.
	PrimaryLastSeq uint64
	// Epoch is the highest fencing epoch observed (manifest or records).
	Epoch uint64
	// CaughtUp reports Applied == PrimaryLastSeq as of the last
	// successful step.
	CaughtUp bool
	// BytesBehind and SegmentsBehind measure replication lag against the
	// last fetched manifest: committed WAL bytes not yet mirrored locally,
	// and how many advertised segments are still incomplete here.
	BytesBehind    int64
	SegmentsBehind int
	// Stale reports no successful primary contact within the budget.
	Stale bool
	// LastContact is the last successful manifest fetch.
	LastContact time.Time
	// ConsecutiveFailures counts failed steps since the last success —
	// the auto-promotion trigger.
	ConsecutiveFailures int
	// SnapshotRestarts counts restart-from-snapshot bootstraps.
	SnapshotRestarts uint64
	// LastError is the most recent step failure, empty after a success.
	LastError string
}

// ErrStalePrimary reports a primary advertising an epoch below one this
// follower has already observed: it was demoted, and tailing it would
// fork history.
var ErrStalePrimary = errors.New("replicate: primary epoch below observed epoch")

// segPos is the verified extent of one mirrored segment: byte length and
// frame count (the frame count keys sequence-number assignment — the
// first unmirrored record in a segment is Base + Frames).
type segPos struct {
	bytes  int64
	frames uint64
}

// Tailer mirrors a primary's WAL and snapshot into a local directory; it
// never replays them — a promotion opens the mirror as a store. Step is
// single-threaded (one catch-up pass); Run loops it. Status is safe to
// read concurrently.
type Tailer struct {
	cfg Config
	rng *mathx.RNG

	resumed bool
	applied uint64
	pos     map[string]segPos
	// snapSeq is the mirrored snapshot's Seq, 0 without one.
	snapSeq uint64

	mu sync.Mutex
	st Status
}

// NewTailer prepares a tailer over cfg.Dir (created if needed). No network
// traffic happens until Step.
func NewTailer(cfg Config) (*Tailer, error) {
	cfg = cfg.withDefaults()
	if cfg.Primary == "" {
		return nil, errors.New("replicate: no primary URL")
	}
	if cfg.Dir == "" {
		return nil, errors.New("replicate: no mirror directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	return &Tailer{
		cfg: cfg,
		rng: mathx.NewRNG(cfg.Seed).Split(0x7a11),
		pos: make(map[string]segPos),
	}, nil
}

// Status returns a copy of the tailer's current state.
func (t *Tailer) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.Stale = st.LastContact.IsZero() || time.Since(st.LastContact) > t.cfg.StalenessBudget
	return st
}

// StalenessBudget returns the configured budget (for probe wiring).
func (t *Tailer) StalenessBudget() time.Duration { return t.cfg.StalenessBudget }

// Step performs one catch-up pass: resume local state (first call only),
// fetch the manifest, bootstrap from snapshot if the primary compacted
// past us, tail every segment to its committed size, applying new records
// in order, then mirror the primary's newer snapshot. It returns
// the first error; failures are also counted in Status for the promotion
// budget.
func (t *Tailer) Step(ctx context.Context) error {
	err := t.step(ctx)
	t.mu.Lock()
	if err != nil {
		t.st.ConsecutiveFailures++
		t.st.LastError = err.Error()
	} else {
		t.st.ConsecutiveFailures = 0
		t.st.LastError = ""
	}
	t.mu.Unlock()
	return err
}

func (t *Tailer) step(ctx context.Context) error {
	if !t.resumed {
		if err := t.resume(); err != nil {
			return err
		}
		t.resumed = true
	}
	body, code, err := t.get(ctx, "/replicate/manifest", 1<<24)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("replicate: manifest HTTP %d", code)
	}
	var m store.Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("replicate: manifest: %w", err)
	}
	t.mu.Lock()
	if m.Epoch < t.st.Epoch {
		t.mu.Unlock()
		return fmt.Errorf("%w (manifest %d, observed %d)", ErrStalePrimary, m.Epoch, t.st.Epoch)
	}
	t.st.Epoch = m.Epoch
	t.st.PrimaryLastSeq = m.LastSeq
	t.st.LastContact = time.Now()
	t.st.BytesBehind, t.st.SegmentsBehind = t.lag(&m)
	t.mu.Unlock()

	if err := t.catchUp(ctx, &m); err != nil {
		return err
	}
	if err := t.mirrorSnapshot(ctx, &m); err != nil {
		return err
	}
	t.mu.Lock()
	t.st.CaughtUp = t.applied >= m.LastSeq
	t.st.Applied = t.applied
	t.st.BytesBehind, t.st.SegmentsBehind = t.lag(&m)
	t.mu.Unlock()
	return nil
}

// lag measures the mirror against a manifest: advertised committed bytes
// not yet held locally, and how many segments are incomplete. Called from
// the step thread (pos is single-threaded); the caller stores the result
// under mu.
func (t *Tailer) lag(m *store.Manifest) (bytes int64, segments int) {
	for _, s := range m.Segments {
		if have := t.pos[s.Name].bytes; have < s.Size {
			bytes += s.Size - have
			segments++
		}
	}
	return bytes, segments
}

// Run loops Step at the poll cadence (jittered) until ctx is done. Step
// errors are absorbed into Status — the loop itself never gives up.
func (t *Tailer) Run(ctx context.Context) {
	for {
		_ = t.Step(ctx)
		half := t.cfg.Poll / 2
		d := half + time.Duration(t.rng.Float64()*float64(half))
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
	}
}

// resume reconstructs the tailer's position from a previous follower
// process: load the mirrored snapshot, and verify every local segment
// (truncating torn tails a follower crash can leave), applying its records
// before any network traffic.
func (t *Tailer) resume() error {
	if snap := store.LoadSnapshotFile(t.cfg.Dir); snap != nil {
		t.applied, t.snapSeq = snap.Seq, snap.Seq
		t.mu.Lock()
		if snap.Epoch > t.st.Epoch {
			t.st.Epoch = snap.Epoch
		}
		t.mu.Unlock()
	}
	segs, err := t.localSegments()
	if err != nil {
		return err
	}
	for i, s := range segs {
		if s.base > t.applied+1 {
			// A gap (crash between snapshot install and segment fetch):
			// everything from here on must be refetched.
			for _, drop := range segs[i:] {
				_ = os.Remove(drop.path)
			}
			break
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("replicate: %w", err)
		}
		recs, consumed, _ := store.DecodeFrames(data, s.base)
		name := filepath.Base(s.path)
		t.pos[name] = segPos{bytes: int64(consumed), frames: uint64(len(recs))}
		for _, r := range recs {
			t.apply(r)
		}
		if consumed < len(data) {
			// A torn or corrupt local tail is follower crash damage: keep
			// the valid prefix, drop later files, refetch the rest.
			if err := os.Truncate(s.path, int64(consumed)); err != nil {
				return fmt.Errorf("replicate: %w", err)
			}
			for _, drop := range segs[i+1:] {
				_ = os.Remove(drop.path)
			}
			break
		}
	}
	t.mu.Lock()
	t.st.Applied = t.applied
	t.mu.Unlock()
	return nil
}

type localSeg struct {
	base uint64
	path string
}

func (t *Tailer) localSegments() ([]localSeg, error) {
	names, err := filepath.Glob(filepath.Join(t.cfg.Dir, "wal-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	var segs []localSeg
	for _, p := range names {
		if base, ok := store.SegmentBase(filepath.Base(p)); ok {
			segs = append(segs, localSeg{base, p})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// apply advances the applied position past one mirrored record, once and
// in order, and tracks observed epochs.
func (t *Tailer) apply(r store.SeqRecord) {
	if r.Seq <= t.applied {
		return
	}
	if r.Type == store.RecEpoch {
		t.mu.Lock()
		if r.Epoch.Epoch > t.st.Epoch {
			t.st.Epoch = r.Epoch.Epoch
		}
		t.mu.Unlock()
	}
	t.applied = r.Seq
}

// catchUp tails every advertised segment holding records above applied.
func (t *Tailer) catchUp(ctx context.Context, m *store.Manifest) error {
	if m.LastSeq <= t.applied {
		return nil
	}
	// Find the segment containing applied+1: the largest base at or below
	// it. If the primary compacted past us, bootstrap from its snapshot.
	start := t.startIndex(m)
	if start < 0 {
		if err := t.bootstrap(ctx, m); err != nil {
			return err
		}
		if m.LastSeq <= t.applied {
			return nil
		}
		if start = t.startIndex(m); start < 0 {
			return fmt.Errorf("replicate: no segment covers seq %d after snapshot bootstrap", t.applied+1)
		}
	}
	for _, seg := range m.Segments[start:] {
		restarted, err := t.tailSegment(ctx, m, seg)
		if err != nil {
			return err
		}
		if restarted {
			// The mirror was rebuilt from a snapshot mid-pass; the
			// manifest is stale now. The next step re-polls and resumes.
			return nil
		}
	}
	return nil
}

func (t *Tailer) startIndex(m *store.Manifest) int {
	start := -1
	for i, s := range m.Segments {
		if s.Base <= t.applied+1 {
			start = i
		}
	}
	return start
}

// tailSegment fetches one segment from the local mirror offset up to its
// advertised committed size, verifying, persisting, and applying each
// chunk. restarted reports that a mid-tail compaction forced a snapshot
// bootstrap (the pass must re-poll).
func (t *Tailer) tailSegment(ctx context.Context, m *store.Manifest, seg store.SegmentInfo) (restarted bool, err error) {
	pos := t.pos[seg.Name]
	for pos.bytes < seg.Size {
		path := fmt.Sprintf("/replicate/segment/%s?offset=%d&max=%d", seg.Name, pos.bytes, t.cfg.MaxChunk)
		body, code, err := t.get(ctx, path, int64(t.cfg.MaxChunk)+chunkOverhead)
		if err != nil {
			return false, err
		}
		switch code {
		case http.StatusOK:
		case http.StatusGone:
			// Compacted under us mid-tail: restart from snapshot.
			return true, t.bootstrap(ctx, m)
		default:
			return false, fmt.Errorf("replicate: segment %s HTTP %d", seg.Name, code)
		}
		if len(body) == 0 {
			return false, fmt.Errorf("replicate: segment %s empty read at %d (size %d)", seg.Name, pos.bytes, seg.Size)
		}
		// Strictly verify before anything touches the mirror: only
		// complete, CRC-valid, decodable frames are ever written locally,
		// so the local log can never hold a torn or corrupt record.
		recs, consumed, err := store.DecodeFrames(body, seg.Base+pos.frames)
		if err != nil {
			return false, fmt.Errorf("replicate: segment %s at %d: %w", seg.Name, pos.bytes, err)
		}
		if consumed == 0 {
			return false, fmt.Errorf("replicate: segment %s at %d: truncated frame from primary", seg.Name, pos.bytes)
		}
		if err := t.appendLocal(seg.Name, pos.bytes, body[:consumed]); err != nil {
			return false, err
		}
		for _, r := range recs {
			t.apply(r)
		}
		pos.bytes += int64(consumed)
		pos.frames += uint64(len(recs))
		t.pos[seg.Name] = pos
		t.mu.Lock()
		t.st.Applied = t.applied
		t.mu.Unlock()
	}
	return false, nil
}

// appendLocal writes verified frame bytes at the expected offset of the
// mirrored segment file and fsyncs, keeping the mirror byte-identical to
// the primary's committed prefix.
func (t *Tailer) appendLocal(name string, off int64, b []byte) error {
	path := filepath.Join(t.cfg.Dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	if fi.Size() != off {
		return fmt.Errorf("replicate: mirror %s is %d bytes, expected %d", name, fi.Size(), off)
	}
	if _, err := f.WriteAt(b, off); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	return nil
}

// bootstrap discards the local mirror and restarts from the primary's
// snapshot: fetch, install atomically, wipe segments, reset positions.
func (t *Tailer) bootstrap(ctx context.Context, m *store.Manifest) error {
	if !m.HasSnapshot {
		return errors.New("replicate: lagging past primary's segments and it has no snapshot")
	}
	blob, code, err := t.get(ctx, "/replicate/snapshot", 1<<26)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("replicate: snapshot HTTP %d", code)
	}
	// Wipe the mirror first: a crash between wipe and install recovers as
	// an empty follower; a crash between install and refetch recovers via
	// resume's gap pruning. Neither can yield a seq gap in the mirror.
	segs, err := t.localSegments()
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("replicate: %w", err)
		}
	}
	snap, err := store.InstallSnapshotBlob(t.cfg.Dir, blob)
	if err != nil {
		return err
	}
	t.pos = make(map[string]segPos)
	t.applied, t.snapSeq = snap.Seq, snap.Seq
	t.mu.Lock()
	t.st.Applied = snap.Seq
	t.st.SnapshotRestarts++
	if snap.Epoch > t.st.Epoch {
		t.st.Epoch = snap.Epoch
	}
	t.mu.Unlock()
	return nil
}

// mirrorSnapshot installs the primary's snapshot beside the mirrored
// segments when the manifest advertises one newer than the mirror's, so a
// promoted mirror resumes at it instead of re-judging the whole log. It is
// not a reset: no segment is wiped and no record is applied again. Only a
// snapshot whose records the mirror has already applied is installed; one
// the primary wrote past them after the manifest waits for a later pass.
func (t *Tailer) mirrorSnapshot(ctx context.Context, m *store.Manifest) error {
	if !m.HasSnapshot || m.SnapshotSeq <= t.snapSeq || m.SnapshotSeq > t.applied {
		return nil
	}
	blob, code, err := t.get(ctx, "/replicate/snapshot", 1<<26)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("replicate: snapshot HTTP %d", code)
	}
	var head struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(blob, &head); err != nil {
		return fmt.Errorf("replicate: snapshot: %w", err)
	}
	if head.Seq <= t.snapSeq || head.Seq > t.applied {
		return nil
	}
	snap, err := store.InstallSnapshotBlob(t.cfg.Dir, blob)
	if err != nil {
		return err
	}
	t.snapSeq = snap.Seq
	return nil
}

// chunkOverhead is response headroom above MaxChunk: a whole-frame
// response can exceed the chunk cap by up to the record size limit.
const chunkOverhead = (1 << 20) + (1 << 10)

// getAttempts bounds the attempts of one fetch before the step fails.
// Each retry sleeps a jittered duration in [d/2, d), where d doubles from
// retryBase: at most 200ms before the last attempt.
const (
	getAttempts = 4
	retryBase   = 50 * time.Millisecond
)

// get fetches one replication path with bounded retries and jittered
// exponential backoff. Network errors and 5xx responses retry; semantic
// statuses (404, 410, ...) return immediately for the caller to interpret.
func (t *Tailer) get(ctx context.Context, path string, limit int64) ([]byte, int, error) {
	var lastErr error
	for attempt := 0; attempt < getAttempts; attempt++ {
		if attempt > 0 {
			d := retryBase << (attempt - 1)
			d = d/2 + time.Duration(t.rng.Float64()*float64(d/2))
			select {
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			case <-time.After(d):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.cfg.Primary+path, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("replicate: %w", err)
		}
		resp, err := t.cfg.Client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("replicate: %s HTTP %d", path, resp.StatusCode)
			continue
		}
		return body, resp.StatusCode, nil
	}
	return nil, 0, fmt.Errorf("replicate: %s failed after %d attempts: %w", path, getAttempts, lastErr)
}
