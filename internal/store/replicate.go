package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// ErrNoSegment reports a replication read against a segment the store no
// longer has — compacted away, or never ours. It is the clean "restart
// from snapshot" signal a lagging follower acts on; it is never returned
// for a segment that merely has no bytes past the requested offset.
var ErrNoSegment = errors.New("store: segment not available")

// SegmentInfo describes one WAL segment a follower can fetch. Size is the
// committed byte length: every byte below it is an immutable, fully
// written frame. Sealed segments will never grow again.
type SegmentInfo struct {
	Name   string `json:"name"`
	Base   uint64 `json:"base"`
	Size   int64  `json:"size"`
	Sealed bool   `json:"sealed"`
}

// Manifest is the primary's replication advertisement: its fencing epoch,
// log extent, snapshot coverage, and the fetchable segment set (oldest
// first, contiguous).
type Manifest struct {
	Epoch       uint64        `json:"epoch"`
	Fenced      bool          `json:"fenced"`
	LastSeq     uint64        `json:"lastSeq"`
	SnapshotSeq uint64        `json:"snapshotSeq"`
	HasSnapshot bool          `json:"hasSnapshot"`
	Segments    []SegmentInfo `json:"segments"`
}

// ReplicationManifest snapshots the store's replicable state. Committed
// sizes are captured under the store lock, so a concurrent append never
// makes a follower read a torn frame: bytes below the advertised size are
// immutable by construction.
func (s *Store) ReplicationManifest() (Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Manifest{}, fmt.Errorf("store: closed")
	}
	m := Manifest{
		Epoch:       s.epoch,
		Fenced:      s.fenced,
		LastSeq:     s.wal.nextSeq - 1,
		SnapshotSeq: s.snapSeq,
		HasSnapshot: s.hasSnap,
	}
	for _, seg := range s.wal.closed {
		fi, err := os.Stat(seg.path)
		if err != nil {
			return Manifest{}, fmt.Errorf("store: manifest: %w", err)
		}
		m.Segments = append(m.Segments, SegmentInfo{
			Name:   filepath.Base(seg.path),
			Base:   seg.base,
			Size:   fi.Size(),
			Sealed: true,
		})
	}
	if s.wal.f != nil {
		m.Segments = append(m.Segments, SegmentInfo{
			Name: filepath.Base(segmentPath(s.wal.dir, s.wal.segBase)),
			Base: s.wal.segBase,
			Size: s.wal.segSize,
		})
	}
	return m, nil
}

// ReadSegmentAt returns committed frame bytes from the named segment
// starting at off, at most max bytes, always ending on a frame boundary
// (a frame larger than max is returned whole, so progress is guaranteed).
// Every returned frame is CRC-verified server-side before it leaves the
// process. An unknown or compacted segment returns ErrNoSegment; an
// offset at or past the committed size returns no bytes and no error.
func (s *Store) ReadSegmentAt(name string, off int64, max int) ([]byte, error) {
	if off < 0 {
		return nil, fmt.Errorf("store: negative offset %d", off)
	}
	if max <= 0 {
		max = 1 << 20
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: closed")
	}
	var path string
	var committed int64
	found := false
	for _, seg := range s.wal.closed {
		if filepath.Base(seg.path) == name {
			fi, err := os.Stat(seg.path)
			if err != nil {
				s.mu.Unlock()
				return nil, fmt.Errorf("store: %w", err)
			}
			path, committed, found = seg.path, fi.Size(), true
			break
		}
	}
	if !found && s.wal.f != nil {
		active := segmentPath(s.wal.dir, s.wal.segBase)
		if filepath.Base(active) == name {
			path, committed, found = active, s.wal.segSize, true
		}
	}
	s.mu.Unlock()
	if !found {
		return nil, fmt.Errorf("%w: %s", ErrNoSegment, name)
	}
	if off >= committed {
		return nil, nil
	}
	// Lock-free read: everything below committed is immutable.
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	want := committed - off
	if int64(max) < want {
		want = int64(max)
	}
	buf := make([]byte, want)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: read %s@%d: %w", name, off, err)
	}
	consumed, err := verifyFrames(buf)
	if err != nil {
		return nil, fmt.Errorf("store: %s@%d: %w", name, off, err)
	}
	if consumed > 0 {
		return buf[:consumed], nil
	}
	// The first frame alone exceeds max: read it whole so the follower
	// always makes progress.
	if committed-off < frameHeader {
		return nil, fmt.Errorf("store: %s@%d: committed tail shorter than a frame header", name, off)
	}
	head := make([]byte, frameHeader)
	if _, err := f.ReadAt(head, off); err != nil {
		return nil, fmt.Errorf("store: read %s@%d: %w", name, off, err)
	}
	length := int64(binary.LittleEndian.Uint32(head))
	if length == 0 || length > maxRecordBytes || off+frameHeader+length > committed {
		return nil, fmt.Errorf("store: %s@%d: corrupt frame header", name, off)
	}
	frame := make([]byte, frameHeader+length)
	if _, err := f.ReadAt(frame, off); err != nil {
		return nil, fmt.Errorf("store: read %s@%d: %w", name, off, err)
	}
	if n, err := verifyFrames(frame); err != nil || int64(n) != frameHeader+length {
		return nil, fmt.Errorf("store: %s@%d: corrupt committed frame", name, off)
	}
	return frame, nil
}

// verifyFrames walks CRC frames in b and returns how many bytes form
// complete, checksum-valid frames. A partial frame at the end is not an
// error (the window was cut by a size cap); a complete frame with a bad
// CRC or an insane length is.
func verifyFrames(b []byte) (consumed int, err error) {
	off := 0
	for off < len(b) {
		if len(b)-off < frameHeader {
			return off, nil
		}
		length := int(binary.LittleEndian.Uint32(b[off:]))
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if length == 0 || length > maxRecordBytes {
			return off, fmt.Errorf("insane frame length %d at offset %d", length, off)
		}
		if len(b)-off-frameHeader < length {
			return off, nil
		}
		if crc32.ChecksumIEEE(b[off+frameHeader:off+frameHeader+length]) != sum {
			return off, fmt.Errorf("frame CRC mismatch at offset %d", off)
		}
		off += frameHeader + length
	}
	return off, nil
}

// DecodeFrames strictly decodes the complete frames in b, assigning
// sequence numbers from startSeq. It returns the records, how many bytes
// were consumed (a trailing partial frame is left unconsumed, not an
// error), and the first corruption encountered (bad length, CRC, or
// payload), if any.
func DecodeFrames(b []byte, startSeq uint64) ([]SeqRecord, int, error) {
	var recs []SeqRecord
	off, seq := 0, startSeq
	for off < len(b) {
		if len(b)-off < frameHeader {
			return recs, off, nil
		}
		length := int(binary.LittleEndian.Uint32(b[off:]))
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if length == 0 || length > maxRecordBytes {
			return recs, off, fmt.Errorf("store: insane frame length %d at offset %d", length, off)
		}
		if len(b)-off-frameHeader < length {
			return recs, off, nil
		}
		payload := b[off+frameHeader : off+frameHeader+length]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, fmt.Errorf("store: frame CRC mismatch at offset %d", off)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, off, err
		}
		recs = append(recs, SeqRecord{Seq: seq, Record: rec})
		seq++
		off += frameHeader + length
	}
	return recs, off, nil
}

// SegmentBase parses a WAL segment file name ("wal-<20 digits>.seg") into
// the sequence number of its first record.
func SegmentBase(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(digits) != 20 {
		return 0, false
	}
	base, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// SegmentName formats the segment file name for a base sequence number —
// the inverse of SegmentBase.
func SegmentName(base uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, base, segSuffix)
}

// SnapshotBlob returns the live snapshot's raw bytes for replication, or
// os.ErrNotExist when none has been written yet.
func (s *Store) SnapshotBlob() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	return os.ReadFile(filepath.Join(s.dir, snapshotFile))
}

// LoadSnapshotFile reads dir's live snapshot without opening a store —
// how a follower inspects its local mirror. Missing or invalid files
// return nil.
func LoadSnapshotFile(dir string) *SnapshotState {
	st, _ := loadSnapshot(dir)
	return st
}

// InstallSnapshotBlob validates a fetched snapshot document and writes it
// atomically into dir (writeSnapshotFile), byte-for-byte as served by the
// primary. The follower calls this when bootstrapping past a
// compaction gap.
func InstallSnapshotBlob(dir string, blob []byte) (*SnapshotState, error) {
	var st SnapshotState
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, fmt.Errorf("store: snapshot blob: %w", err)
	}
	if st.Schema != SnapshotSchema {
		return nil, fmt.Errorf("store: snapshot blob schema %q", st.Schema)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := writeSnapshotFile(dir, blob); err != nil {
		return nil, err
	}
	return &st, nil
}
