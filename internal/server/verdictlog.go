package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"

	"dbcatcher/internal/detect"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
)

// verdictLog is one unit's retained verdict history, held as the JSON the
// verdict routes serve: each verdict is encoded once, when it is recorded,
// and a read writes out one byte range.
//
// The writer (Push, RestoreHistory) runs under Server.mu and republishes
// the log as an immutable verdictView after every change; readers load the
// view and take no lock. A published view's bytes never change under a
// reader: the writer only writes past the published length, and compaction
// copies the retained entries into fresh arrays.
type verdictLog struct {
	max     int        // retained entries; immutable after New
	buf     []byte     // encoded entries back to back, each followed by ','
	entries []logEntry // one per encoded entry, oldest first
	head    int        // entries[head:] are retained, older ones evicted
	// abnormal counts the retained verdicts that flagged a database.
	abnormal int
	view     atomic.Pointer[verdictView]
}

type logEntry struct {
	tick     int
	off      int // where the entry starts in buf
	abnormal bool
}

// verdictView is a published state of the log. Entry i spans buf from
// entries[i].off up to the next entry's offset, or up to len(buf) for the
// last one, including its trailing ','.
type verdictView struct {
	buf     []byte
	entries []logEntry
}

func newVerdictLog(max int) *verdictLog {
	l := &verdictLog{max: max}
	l.publish()
	return l
}

// len returns the number of retained verdicts.
func (l *verdictLog) len() int { return len(l.entries) - l.head }

// lastTick returns the newest retained verdict's tick, or -1.
func (l *verdictLog) lastTick() int {
	if l.len() == 0 {
		return -1
	}
	return l.entries[len(l.entries)-1].tick
}

// append encodes v as the newest entry, evicting the oldest beyond max.
// Call publish to make it visible to readers.
func (l *verdictLog) append(v *monitor.Verdict) {
	if l.head >= l.max {
		l.compact()
	}
	l.entries = append(l.entries, logEntry{tick: v.Tick, off: len(l.buf), abnormal: v.Abnormal})
	l.buf = append(appendVerdict(l.buf, v), ',')
	if v.Abnormal {
		l.abnormal++
	}
	if l.len() > l.max {
		if l.entries[l.head].abnormal {
			l.abnormal--
		}
		l.head++
	}
}

// compact moves the retained entries to the front of fresh arrays with
// room for max more, so the evicted prefix is dropped once per max appends.
// Views published before keep the old arrays.
func (l *verdictLog) compact() {
	live := l.entries[l.head:]
	base := live[0].off
	buf := make([]byte, len(l.buf)-base, 2*(len(l.buf)-base))
	copy(buf, l.buf[base:])
	entries := make([]logEntry, len(live), 2*l.max)
	for i, e := range live {
		e.off -= base
		entries[i] = e
	}
	l.buf, l.entries, l.head = buf, entries, 0
}

func (l *verdictLog) publish() {
	l.view.Store(&verdictView{buf: l.buf, entries: l.entries[l.head:]})
}

// page selects the newest limit entries with tick > since (since < 0: no
// filter). It returns their count and their comma-separated objects.
func (v *verdictView) page(since, limit int) (int, []byte) {
	es := v.entries
	lo := 0
	if since >= 0 {
		lo = sort.Search(len(es), func(i int) bool { return es[i].tick > since })
	}
	if len(es)-lo > limit {
		lo = len(es) - limit
	}
	if lo == len(es) {
		return 0, nil
	}
	return len(es) - lo, v.buf[es[lo].off : len(v.buf)-1]
}

var (
	arrayOpen     = []byte("[")
	arrayClose    = []byte("]\n")
	envelopeClose = []byte("]}\n")
)

// writeVerdicts answers 200 with entries between head and tail.
func writeVerdicts(w http.ResponseWriter, head, entries, tail []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(head)
	_, _ = w.Write(entries)
	_, _ = w.Write(tail)
}

// The names of the named states and healths, encoded, indexed by value.
var (
	stateJSON  = encodedNames(int(window.Abnormal)+1, func(i int) string { return window.State(i).String() })
	healthJSON = encodedNames(int(detect.HealthSkipped)+1, func(i int) string { return detect.Health(i).String() })
)

func encodedNames(n int, name func(int) string) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = appendString(nil, name(i))
	}
	return out
}

// appendString appends s as encoding/json encodes a string, HTML-safe
// escaping and invalid-UTF-8 replacement included.
func appendString(b []byte, s string) []byte {
	enc, _ := json.Marshal(s) // a string always encodes
	return append(b, enc...)
}

func appendName(b []byte, table [][]byte, v int, name func() string) []byte {
	if v >= 0 && v < len(table) {
		return append(b, table[v]...)
	}
	return appendString(b, name()) // outside the named set, e.g. State(7)
}

// appendVerdict appends v's wire object: the fields, order and formatting
// encoding/json produces for the verdict routes' documented shape.
func appendVerdict(b []byte, v *monitor.Verdict) []byte {
	b = append(b, `{"tick":`...)
	b = strconv.AppendInt(b, int64(v.Tick), 10)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, int64(v.Start), 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(v.Size), 10)
	b = append(b, `,"abnormal":`...)
	b = strconv.AppendBool(b, v.Abnormal)
	b = append(b, `,"abnormalDb":`...)
	b = strconv.AppendInt(b, int64(v.AbnormalDB), 10)
	b = append(b, `,"states":[`...)
	for i, st := range v.States {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendName(b, stateJSON, int(st), st.String)
	}
	b = append(b, `],"expansions":`...)
	b = strconv.AppendInt(b, int64(v.Expansions), 10)
	b = append(b, `,"health":`...)
	b = appendName(b, healthJSON, int(v.Health), v.Health.String)
	b = append(b, `,"gapCells":`...)
	b = strconv.AppendInt(b, int64(v.GapCells), 10)
	return append(b, '}')
}
