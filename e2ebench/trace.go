package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/server"
	"dbcatcher/internal/window"
)

// Span kinds. Each is named layer.operation, the layer being the module
// whose public seam the span wraps; spans are recorded from this package
// only, around calls into the layers.
const (
	kTick         = iota // feeder.tick: one feeder iteration, the root of a tick's tree
	kPublish             // scrape.publish: Feed.Publish of the tick to every exporter
	kRound               // fleet.round: Monitor.Push or Monitor.ScrapeRound
	kPush                // monitor.push: one unit's Server.Push → Online.Push
	kPersist             // store.persist: the unit's FleetPersister hook, inside the judge lock
	kHTTP                // scrape.http: one scrape request, until its body is closed
	kServe               // exporter.serve: the exporter handler serving that request
	kExplain             // detect.explain: culprit attribution of one abnormal verdict
	kObserve             // incident.observe: Aggregator.ObserveRound
	kIncAppend           // store.incident_append: FleetPersister.RecordIncidentRound
	kVerdictGet          // server.verdict_get: the verdict reader's GET, client side
	kHandle              // server.handle: the fleet API handler serving any request
	kStatusGet           // server.status_get: dashboard GET /api/fleet/status
	kPageGet             // server.page_get: dashboard GET /api/fleet/verdicts
	kIncidentsGet        // server.incidents_get: dashboard GET /api/incidents
	numKinds
)

var kindNames = [numKinds]string{
	"feeder.tick", "scrape.publish", "fleet.round", "monitor.push", "store.persist",
	"scrape.http", "exporter.serve", "detect.explain", "incident.observe",
	"store.incident_append", "server.verdict_get", "server.handle",
	"server.status_get", "server.page_get", "server.incidents_get",
}

func kindLayer(k int) string { return strings.SplitN(kindNames[k], ".", 2)[0] }

// layers lists the tick-tree layers in report order.
var layers = []string{"feeder", "scrape", "exporter", "fleet", "monitor", "store", "detect", "incident", "server"}

// spanHeader carries a client span's id to the handler that serves it.
const spanHeader = "X-Bench-Span"

// span is one recorded interval. Times are nanoseconds since the tracer's
// base; parent is the id of the causing span or -1.
type span struct {
	start, end int64
	parent     int32
	kind       uint8
	judged     bool // monitor.push returned a verdict
	ok         bool
}

// spanRef is an open span.
type spanRef struct {
	id     int32
	parent int32
	kind   uint8
	start  int64
}

// tracer records spans into a buffer preallocated before the run. Recording
// is lock-free: each span claims a slot with one atomic add. When on is
// false, or the buffer is full, begin returns an inert ref.
type tracer struct {
	base    time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	on      atomic.Bool
	// round is the id of the fleet.round span in flight; the per-unit
	// wrappers and the scrape transport parent their spans on it.
	round atomic.Int32
	// unitPush[i] is unit i's monitor.push span in flight, which parents
	// the store.persist span recorded inside it. A unit's push and persist
	// run on one goroutine, and rounds are separated by the fleet pool's
	// wait, so the slot needs no further synchronization.
	unitPush []int32
	// target[unit*dbsPerUnit+db] is the scrape.http span in flight to that
	// target, which parents the exporter.serve span answering it. A
	// scraper has at most one request per target in flight, so the slot
	// links the pair without tagging (and so copying) every request.
	target []atomic.Int32
}

func newTracer(capacity, units int) *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, capacity),
		unitPush: make([]int32, units), target: make([]atomic.Int32, units*dbsPerUnit)}
	t.round.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span of kind under parent. A nil tracer records nothing.
func (t *tracer) begin(kind int, parent int32) spanRef {
	if t == nil || !t.on.Load() {
		return spanRef{id: -1}
	}
	id := t.next.Add(1) - 1
	if id >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return spanRef{id: -1}
	}
	return spanRef{id: int32(id), parent: parent, kind: uint8(kind), start: t.now()}
}

func (t *tracer) end(r spanRef, judged bool) {
	if r.id < 0 {
		return
	}
	t.spans[r.id] = span{start: r.start, end: t.now(), parent: r.parent, kind: r.kind, judged: judged, ok: true}
}

// tracedPusher is the fleet.Pusher a traced run installs per unit: it
// times server.Server.Push (and with it Online.Push).
type tracedPusher struct {
	srv  *server.Server
	unit int
	tr   *tracer
}

func (p *tracedPusher) Push(sample [][]float64) (*monitor.Verdict, error) {
	ref := p.tr.begin(kPush, p.tr.round.Load())
	p.tr.unitPush[p.unit] = ref.id
	v, err := p.srv.Push(sample)
	p.tr.end(ref, v != nil)
	return v, err
}

// tracedPersister times the unit's FleetPersister hook.
type tracedPersister struct {
	inner monitor.Persister
	unit  int
	tr    *tracer
}

func (p *tracedPersister) PersistVerdict(v *monitor.Verdict, ctx monitor.PersistContext) {
	ref := p.tr.begin(kPersist, p.tr.unitPush[p.unit])
	p.inner.PersistVerdict(v, ctx)
	p.tr.end(ref, false)
}

func (p *tracedPersister) PersistThresholds(th window.Thresholds, ctx monitor.PersistContext) {
	p.inner.PersistThresholds(th, ctx)
}

// tracedTransport times each request of one unit's scraper, from send until
// the scraper closes the response body.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
	unit int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref := t.tr.begin(kHTTP, t.tr.round.Load())
	if ref.id < 0 {
		return t.base.RoundTrip(req)
	}
	if db := targetDB(req.URL.Path); db >= 0 {
		t.tr.target[t.unit*dbsPerUnit+db].Store(ref.id)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(ref, false)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, ref: ref}
	return resp, nil
}

// spanBody ends its request's span when the scraper closes it, which it
// does once, from the goroutine that made the request.
type spanBody struct {
	io.ReadCloser
	tr     *tracer
	ref    spanRef
	closed bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		b.tr.end(b.ref, false)
	}
	return err
}

// exporterSpan wraps unit's exporter handler: each request it serves
// records an exporter.serve span under the scrape.http span in flight to
// the same target.
func (t *tracer) exporterSpan(unit int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := int32(-1)
		if db := targetDB(r.URL.Path); db >= 0 {
			parent = t.target[unit*dbsPerUnit+db].Load()
		}
		ref := t.begin(kServe, parent)
		next.ServeHTTP(w, r)
		t.end(ref, false)
	})
}

// targetDB parses the database index out of a scrape target path
// ("/db/3/kpis"), or returns -1.
func targetDB(path string) int {
	rest, ok := strings.CutPrefix(path, "/db/")
	if !ok {
		return -1
	}
	db := 0
	for i := 0; i < len(rest) && rest[i] != '/'; i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return -1
		}
		db = db*10 + int(rest[i]-'0')
	}
	if db >= dbsPerUnit {
		return -1
	}
	return db
}

// apiSpan wraps the fleet API handler so every request it serves records a
// server.handle span, parented on the client span named in the request
// header (the benchmark's own readers set it).
func (t *tracer) apiSpan(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := int32(-1)
		if h := r.Header.Get(spanHeader); h != "" {
			if id, err := strconv.Atoi(h); err == nil {
				parent = int32(id)
			}
		}
		ref := t.begin(kHandle, parent)
		next.ServeHTTP(w, r)
		t.end(ref, false)
	})
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMs float64 `json:"self_ms"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
}

// traceReport is what a traced run derives from its spans.
type traceReport struct {
	Kinds []layerRow `json:"kinds"`
	// Shares maps each layer to its share, in percent, of the wall time
	// of the traced closed-loop ticks. Each instant of a tick is split
	// evenly between the innermost spans running at that instant, so the
	// shares sum to 100.
	Shares       map[string]float64 `json:"shares"`
	ShareSum     float64            `json:"share_sum"`
	TickWallMs   float64            `json:"tick_wall_ms"`
	FleetSelf    float64            `json:"fleet_self_share"`
	FleetPar     float64            `json:"fleet_parallelism"`
	Recorded     int                `json:"recorded"`
	Dropped      int64              `json:"dropped"`
	durations    [numKinds][]float64
	pushIngestNs []float64
	pushJudgeNs  []float64
}

// analyze computes per-kind durations and self times over every recorded
// span, and the tick-tree shares over the given closed-loop tick roots.
// A child is counted only inside its parent's interval: an open-loop read
// outlives the tick that produced its verdict.
func (t *tracer) analyze(ticks []int32) *traceReport {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	sp := t.spans[:n]
	rep := &traceReport{Shares: map[string]float64{}, Recorded: n, Dropped: t.dropped.Load()}

	// Children in compressed adjacency form. A parent is always opened,
	// and so numbered, before its children.
	hasParent := func(s span) bool { return s.ok && s.parent >= 0 && int(s.parent) < n && sp[s.parent].ok }
	off := make([]int32, n+1)
	for _, s := range sp {
		if hasParent(s) {
			off[s.parent+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	kids := make([]int32, off[n])
	fill := append([]int32(nil), off[:n]...)
	for i, s := range sp {
		if hasParent(s) {
			kids[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	children := func(i int32) []int32 { return kids[off[i]:off[i+1]] }

	var self [numKinds]float64
	var count [numKinds]int
	for i, s := range sp {
		if !s.ok {
			continue
		}
		d := float64(s.end - s.start)
		count[s.kind]++
		rep.durations[s.kind] = append(rep.durations[s.kind], d)
		if s.kind == kPush {
			if s.judged {
				rep.pushJudgeNs = append(rep.pushJudgeNs, d)
			} else {
				rep.pushIngestNs = append(rep.pushIngestNs, d)
			}
		}
		self[s.kind] += d - float64(unionLen(sp, children(int32(i)), s.start, s.end))
	}
	for k := 0; k < numKinds; k++ {
		rep.Kinds = append(rep.Kinds, layerRow{
			Name: kindNames[k], Count: count[k], SelfMs: self[k] / 1e6,
			P50Us: mathx.Quantile(rep.durations[k], 0.5) / 1e3, P99Us: mathx.Quantile(rep.durations[k], 0.99) / 1e3,
		})
	}

	var wall, roundWall, roundSelf, roundBusy float64
	attributed := make([]float64, len(layers))
	sw := sweeper{sp: sp, children: children}
	for _, root := range ticks {
		if int(root) >= n || !sp[root].ok {
			continue
		}
		wall += float64(sp[root].end - sp[root].start)
		sw.attribute(root, attributed)
		for _, c := range children(root) {
			if sp[c].kind != kRound {
				continue
			}
			r := sp[c]
			roundWall += float64(r.end - r.start)
			roundSelf += float64(r.end - r.start - unionLen(sp, children(c), r.start, r.end))
			for _, g := range children(c) {
				roundBusy += float64(clip(sp[g], r.start, r.end))
			}
		}
	}
	rep.TickWallMs = wall / 1e6
	for i, l := range layers {
		if wall > 0 {
			rep.Shares[l] = 100 * attributed[i] / wall
		}
		rep.ShareSum += rep.Shares[l]
	}
	if roundWall > 0 {
		rep.FleetSelf = roundSelf / roundWall
		rep.FleetPar = roundBusy / roundWall
	}
	return rep
}

// clip is the length of s inside [lo, hi].
func clip(s span, lo, hi int64) int64 {
	if s.start > lo {
		lo = s.start
	}
	if s.end < hi {
		hi = s.end
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// unionLen is the length of the union of the spans' intervals inside
// [lo, hi].
func unionLen(sp []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		s, e := sp[id].start, sp[id].end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// layerIndex maps each span kind to its position in layers.
var layerIndex = func() (idx [numKinds]int) {
	for k := range idx {
		for i, l := range layers {
			if kindLayer(k) == l {
				idx[k] = i
			}
		}
	}
	return idx
}()

// sweeper splits a tick's wall time between its innermost running spans,
// each span clipped to its parent's (clipped) interval.
type sweeper struct {
	sp       []span
	children func(int32) []int32
	// Per tick, indexed by preorder position.
	layer      []int
	parentOf   []int32
	start, end []int64
	events     []sweepEvent
}

type sweepEvent struct {
	t     int64
	node  int32 // preorder position
	start bool
}

func (s *sweeper) attribute(root int32, into []float64) {
	s.layer, s.parentOf, s.start, s.end = s.layer[:0], s.parentOf[:0], s.start[:0], s.end[:0]
	var walk func(id, parent int32, lo, hi int64)
	walk = func(id, parent int32, lo, hi int64) {
		sp := s.sp[id]
		if sp.start > lo {
			lo = sp.start
		}
		if sp.end < hi {
			hi = sp.end
		}
		if hi < lo {
			hi = lo
		}
		li := int32(len(s.layer))
		s.layer = append(s.layer, layerIndex[sp.kind])
		s.parentOf = append(s.parentOf, parent)
		s.start = append(s.start, lo)
		s.end = append(s.end, hi)
		for _, c := range s.children(id) {
			walk(c, li, lo, hi)
		}
	}
	walk(root, -1, s.sp[root].start, s.sp[root].end)
	s.events = s.events[:0]
	for li := range s.layer {
		s.events = append(s.events, sweepEvent{s.start[li], int32(li), true}, sweepEvent{s.end[li], int32(li), false})
	}
	// At equal times: starts before ends; starts parent-first (preorder),
	// ends child-first.
	sort.Slice(s.events, func(a, b int) bool {
		ea, eb := s.events[a], s.events[b]
		if ea.t != eb.t {
			return ea.t < eb.t
		}
		if ea.start != eb.start {
			return ea.start
		}
		if ea.start {
			return ea.node < eb.node
		}
		return ea.node > eb.node
	})
	activeKids := make([]int, len(s.layer))
	leafCount := make([]int, len(layers))
	leaves := 0
	prev := s.start[0]
	for _, e := range s.events {
		if dt := e.t - prev; dt > 0 && leaves > 0 {
			for l, c := range leafCount {
				into[l] += float64(dt) * float64(c) / float64(leaves)
			}
		}
		prev = e.t
		p := s.parentOf[e.node]
		if e.start {
			if p >= 0 {
				if activeKids[p] == 0 {
					leafCount[s.layer[p]]--
					leaves--
				}
				activeKids[p]++
			}
			leafCount[s.layer[e.node]]++
			leaves++
			continue
		}
		leafCount[s.layer[e.node]]--
		leaves--
		if p >= 0 {
			activeKids[p]--
			if activeKids[p] == 0 {
				leafCount[s.layer[p]]++
				leaves++
			}
		}
	}
}

// writeSpans dumps every recorded span as JSON: one array per span of
// [id, kind, parent, start_ns, end_ns].
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"base_unix_ns\":%d,\"kinds\":[", t.base.UnixNano())
	for k, name := range kindNames {
		if k > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", name)
	}
	w.WriteString("],\"spans\":[")
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	first := true
	for i, s := range t.spans[:n] {
		if !s.ok {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", i, s.kind, s.parent, s.start, s.end)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
