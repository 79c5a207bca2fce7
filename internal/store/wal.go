package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Frame layout: u32 payload length | u32 CRC32(payload) | payload. The
// payload's first byte is the record type (see record.go).
const (
	frameHeader    = 8
	maxRecordBytes = 1 << 20

	segPrefix = "wal-"
	segSuffix = ".seg"
)

// segment is one closed (no longer appended-to) log file. base is the
// sequence number of its first record.
type segment struct {
	base uint64
	path string
}

func segmentPath(dir string, base uint64) string {
	return filepath.Join(dir, SegmentName(base))
}

// wal is the segmented append-only log. It is not safe for concurrent use;
// Store serializes access.
type wal struct {
	dir  string
	opts Options
	m    *Metrics

	f        *os.File // active segment, created lazily on first append
	segBase  uint64
	segSize  int64
	closed   []segment // closed segments, oldest first
	nextSeq  uint64    // sequence number the next append receives
	lastSync time.Time
	dirty    bool
	buf      []byte // reusable frame scratch
	failed   error  // a write error poisons the log until reopen
}

// openWAL scans dir, replays every retained segment in order, repairs
// crash damage (truncating at the first torn or corrupt record and
// dropping any segments after it), and leaves the log ready to append.
func openWAL(dir string, opts Options, m *Metrics) (*wal, []SeqRecord, error) {
	w := &wal{dir: dir, opts: opts, m: m, nextSeq: 1}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	var recs []SeqRecord
	damaged := false
	for i, seg := range segs {
		if damaged {
			// A valid record can never follow corruption: the log is
			// contiguous, so later segments are orphaned remnants.
			if err := os.Remove(seg.path); err == nil {
				m.DroppedSegments++
			}
			continue
		}
		before := len(recs)
		var truncAt int64
		var bad bool
		recs, truncAt, bad = replaySegment(seg, m, recs)
		segRecs := recs[before:]
		if len(segRecs) > 0 {
			w.nextSeq = segRecs[len(segRecs)-1].Seq + 1
		}
		if bad {
			damaged = true
			if fi, err := os.Stat(seg.path); err == nil && fi.Size() > truncAt {
				m.TruncatedBytes += fi.Size() - truncAt
				if err := os.Truncate(seg.path, truncAt); err != nil {
					return nil, nil, fmt.Errorf("store: truncate %s: %w", seg.path, err)
				}
			}
			if i == len(segs)-1 {
				m.TornTail = true
			}
		}
		if len(segRecs) == 0 {
			// Nothing valid in it — an empty leftover from a crash between
			// segment creation and first append, or a fully-corrupt file.
			// Remove it so the slot can be reused (the next append would
			// otherwise open an active segment colliding with this base).
			_ = os.Remove(seg.path)
			continue
		}
		w.closed = append(w.closed, seg)
	}
	m.RecoveredRecords = len(recs)
	return w, recs, nil
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, segment{base: base, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// replaySegment decodes one segment file, appending its valid records to
// recs. It returns the extended slice, the byte offset the file should be
// truncated to if damage was found, and whether it was damaged. Damage
// never fails recovery — the log simply ends at the last intact record
// (torn final writes are the expected crash signature).
func replaySegment(seg segment, m *Metrics, recs []SeqRecord) (_ []SeqRecord, truncAt int64, bad bool) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return recs, 0, true
	}
	// Records are large (every payload kind inline), so size the slice
	// once rather than letting append regrow and copy it per doubling.
	recs = slices.Grow(recs, countFrames(data))
	off := 0
	seq := seg.base
	for off < len(data) {
		if len(data)-off < frameHeader {
			return recs, int64(off), true // torn header
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > maxRecordBytes {
			return recs, int64(off), true // insane length: corruption
		}
		if len(data)-off-frameHeader < length {
			return recs, int64(off), true // torn payload
		}
		payload := data[off+frameHeader : off+frameHeader+length]
		if crc32.ChecksumIEEE(payload) != sum {
			m.CRCErrors++
			return recs, int64(off), true
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, int64(off), true
		}
		recs = append(recs, SeqRecord{Seq: seq, Record: rec})
		seq++
		off += frameHeader + length
	}
	return recs, int64(off), false
}

// countFrames returns how many whole frames data holds, stopping at the
// first torn or insane header: an upper bound on the records replay
// decodes from it.
func countFrames(data []byte) int {
	n, off := 0, 0
	for len(data)-off >= frameHeader {
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if length == 0 || length > maxRecordBytes || len(data)-off-frameHeader < length {
			break
		}
		off += frameHeader + length
		n++
	}
	return n
}

// append frames and writes one record, returning its sequence number.
func (w *wal) append(r *Record) (uint64, error) {
	if w.failed != nil {
		return 0, w.failed
	}
	if err := r.validate(); err != nil {
		return 0, err
	}
	w.buf = append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	w.buf = appendPayload(w.buf, r)
	payload := w.buf[frameHeader:]
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("store: record of %d bytes exceeds the %d limit", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(w.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:], crc32.ChecksumIEEE(payload))

	if w.f != nil && w.segSize > 0 && w.segSize+int64(len(w.buf)) > w.opts.SegmentBytes {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	if w.f == nil {
		if err := w.openSegment(); err != nil {
			return 0, err
		}
	}
	if _, err := w.f.Write(w.buf); err != nil {
		// A partial frame may be on disk; recovery's torn-record path
		// handles it. Poison the handle so callers stop appending.
		w.failed = fmt.Errorf("store: append: %w", err)
		return 0, w.failed
	}
	seq := w.nextSeq
	w.nextSeq++
	w.segSize += int64(len(w.buf))
	w.dirty = true
	w.m.Appends++

	switch w.opts.Fsync {
	case FsyncAlways:
		if err := w.sync(); err != nil {
			return seq, err
		}
	case FsyncEveryInterval:
		if time.Since(w.lastSync) >= syncEvery {
			if err := w.sync(); err != nil {
				return seq, err
			}
		}
	}
	return seq, nil
}

func (w *wal) openSegment() error {
	w.segBase = w.nextSeq
	// O_TRUNC: a same-base file can only be an empty or fully-corrupt
	// leftover (anything with valid records would have advanced nextSeq
	// past its base during replay).
	f, err := os.OpenFile(segmentPath(w.dir, w.segBase), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.f = f
	w.segSize = 0
	syncDir(w.dir)
	return nil
}

func (w *wal) rotate() error {
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.closed = append(w.closed, segment{base: w.segBase, path: segmentPath(w.dir, w.segBase)})
	w.f = nil
	w.m.Rotations++
	return nil
}

func (w *wal) sync() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.failed = fmt.Errorf("store: fsync: %w", err)
		return w.failed
	}
	w.dirty = false
	w.lastSync = time.Now()
	w.m.Syncs++
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.sync()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	w.f = nil
	return err
}

// compact removes closed segments whose every record is covered by a
// snapshot (seq <= covered), always keeping the newest retain closed
// segments so recent history survives replay across restarts.
func (w *wal) compact(covered uint64, retain int) {
	if len(w.closed) <= retain {
		return
	}
	removable := w.closed[:len(w.closed)-retain]
	kept := w.closed[:0]
	for i, seg := range w.closed {
		if i < len(removable) {
			// The segment's last record is one before the next
			// segment's base (the active segment starts at segBase,
			// or nextSeq if none is open yet).
			var nextBase uint64
			if i+1 < len(w.closed) {
				nextBase = w.closed[i+1].base
			} else if w.f != nil {
				nextBase = w.segBase
			} else {
				nextBase = w.nextSeq
			}
			if nextBase > 0 && nextBase-1 <= covered {
				if os.Remove(seg.path) == nil {
					w.m.CompactedSegments++
					continue
				}
			}
		}
		kept = append(kept, seg)
	}
	w.closed = kept
	syncDir(w.dir)
}

// syncDir fsyncs a directory so renames and creates within it are durable.
// Errors are ignored: directory fsync is not supported everywhere, and the
// fallback behaviour (data durable, directory entry possibly not) degrades
// to exactly the torn-state recovery already handles.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
