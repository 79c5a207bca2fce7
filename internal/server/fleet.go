// The daemon's one HTTP surface: a Fleet serves the same routes over any
// number of per-unit Servers — several units, one, or none (a follower,
// which serves only the probes and the daemon-wide status). Dashboards
// read region-wide totals and page through per-unit summaries instead of
// polling N ports. Parameters are parsed strictly: malformed units,
// offsets and limits are rejected with 400.
//
// The probes are what a load balancer or orchestrator points at: /healthz
// answers "is the process alive", /readyz "should traffic go here right
// now". The daemon wires closures describing its role (a primary serving
// a live feed, or a follower tailing one) and its readiness (store open,
// feed live, replication caught up within the staleness budget); the
// answer flips across a promotion without restarting the listener.
package server

import (
	"log"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dbcatcher/internal/incident"
)

// maxFleetPage bounds one /api/fleet/status page so a single request can
// never serialize an unbounded number of unit summaries.
const maxFleetPage = 256

// defaultFleetPage is the /api/fleet/status page size when no limit is
// given.
const defaultFleetPage = 32

// Fleet serves the API over a fixed set of per-unit Servers. The unit set
// is immutable after construction; per-unit state is read through each
// Server's own lock, or for verdict pages through its published history
// view, so handlers are safe against the scheduler pushing rounds
// concurrently.
type Fleet struct {
	units []*Server

	mu sync.Mutex
	// persistence, scrape, replication and role, when set, provide the
	// daemon-wide blocks of /api/status and /api/fleet/status.
	persistence func() interface{}
	scrape      func() interface{}
	replication func() interface{}
	role        func() interface{}
	// ready, when set, decides /readyz: nil error means ready.
	ready     func() error
	incidents *incident.Aggregator
	// panics counts handler panics recovered by the middleware.
	panics atomic.Int64
}

// NewFleet builds the surface. The slice is not copied; it must not be
// mutated afterwards.
func NewFleet(units []*Server) *Fleet {
	return &Fleet{units: units}
}

// set stores a provider under mu, then marks every unit's status document
// stale: a document built from here on sees the new provider.
func (f *Fleet) set(field *func() interface{}, fn func() interface{}) {
	f.mu.Lock()
	*field = fn
	f.mu.Unlock()
	f.Invalidate()
}

// Invalidate marks every unit's cached status document stale. Setting a
// provider does it; call it when a daemon-wide block changes without one,
// e.g. on a fencing that flips the role block.
func (f *Fleet) Invalidate() {
	for _, s := range f.units {
		s.Invalidate()
	}
}

// SetPersistence attaches the "persistence" block provider (e.g.
// store.Persister.Status or store.FleetPersister.Status).
func (f *Fleet) SetPersistence(fn func() interface{}) { f.set(&f.persistence, fn) }

// SetScrape attaches the "scrape" block provider (e.g. the scrapers'
// health).
func (f *Fleet) SetScrape(fn func() interface{}) { f.set(&f.scrape, fn) }

// SetReplication attaches the "replication" block provider (e.g.
// replicate.Server.StatusBlock: the WAL's served extent plus every tracked
// standby's lag).
func (f *Fleet) SetReplication(fn func() interface{}) { f.set(&f.replication, fn) }

// SetRole attaches the "role" block provider (e.g.
// {"role":"follower","applied":123,...}).
func (f *Fleet) SetRole(fn func() interface{}) { f.set(&f.role, fn) }

// SetReady attaches the /readyz check: nil error means ready. With no
// check attached the node reports ready whenever it is alive.
func (f *Fleet) SetReady(fn func() error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ready = fn
}

// SetIncidents attaches the incident aggregator: it backs GET
// /api/incidents and the "incidents" block of /api/fleet/status. The
// aggregator is internally locked, so handlers read it while the feeder
// observes rounds.
func (f *Fleet) SetIncidents(a *incident.Aggregator) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.incidents = a
}

// Handler returns the routes, hardened for unattended serving: every
// request but the verdict routes is bounded by DefaultRequestTimeout (see
// harden), and a handler panic is recovered into a JSON 500 (counted in
// the server block) instead of tearing down the connection.
func (f *Fleet) Handler() http.Handler { return f.handler(DefaultRequestTimeout) }

// handler is Handler with the request bound d.
func (f *Fleet) handler(d time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", f.handleReadyz)
	mux.HandleFunc("/api/status", f.handleStatus)
	mux.HandleFunc("/api/explain", f.unitRoute((*Server).handleExplain))
	mux.HandleFunc("/api/thresholds", f.unitRoute((*Server).handleThresholds))
	mux.HandleFunc("/api/feedback", f.unitRoute((*Server).handleFeedback))
	mux.HandleFunc("/api/relearn", f.unitRoute((*Server).handleRelearn))
	mux.HandleFunc("/api/kpis", handleKPIs)
	mux.HandleFunc("/api/fleet/status", f.handleFleetStatus)
	mux.HandleFunc("/api/incidents", f.handleIncidents)
	return harden(mux, d, f.handleVerdicts, f.recordPanic)
}

// recordPanic counts a recovered handler panic. The first stack is logged
// in full; repeats log one line so a panicking endpoint under load cannot
// flood the journal.
func (f *Fleet) recordPanic(v interface{}, stack []byte) {
	// Count, then invalidate: a status document sampling the new
	// generation must already see the new count.
	n := f.panics.Add(1)
	f.Invalidate()
	if n == 1 {
		log.Printf("server: recovered handler panic: %v\n%s", v, stack)
		return
	}
	log.Printf("server: recovered handler panic: %v (stack logged on first occurrence)", v)
}

// unit applies the unit rule to a request's "unit" parameter and returns
// the unit it selects; ok is false when it answered the request instead.
// Without the parameter a one-unit surface selects its unit, a surface
// with several answers 400 "unit required" and one with none 404. A
// malformed value answers 400 "bad unit", one at or past the unit count
// 404 "no such unit".
func (f *Fleet) unit(w http.ResponseWriter, q url.Values) (s *Server, unit int, ok bool) {
	if q.Get("unit") == "" {
		switch len(f.units) {
		case 0:
			http.Error(w, "no unit selected", http.StatusNotFound)
		case 1:
			return f.units[0], 0, true
		default:
			http.Error(w, "unit required", http.StatusBadRequest)
		}
		return nil, 0, false
	}
	unit, ok = queryInt(q, "unit", 0)
	if !ok {
		http.Error(w, "bad unit", http.StatusBadRequest)
		return nil, 0, false
	}
	if unit >= len(f.units) {
		http.Error(w, "no such unit", http.StatusNotFound)
		return nil, 0, false
	}
	return f.units[unit], unit, true
}

// unitRoute mounts a per-unit handler on the unit the request selects.
func (f *Fleet) unitRoute(h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s, _, ok := f.unit(w, r.URL.Query()); ok {
			h(s, w, r)
		}
	}
}

// handleReadyz serves the readiness probe: 200 when the node should
// receive traffic, 503 with a reason when it should not (store closed,
// feed dead, follower stale). Liveness stays on /healthz.
func (f *Fleet) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	f.mu.Lock()
	check := f.ready
	f.mu.Unlock()
	if check != nil {
		if err := check(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "unready", "reason": err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleStatus serves GET /api/status: the selected unit's cached status
// document with a strong ETag, or with no unit selected the daemon-wide
// blocks alone. A unit's body is rebuilt only when its status generation
// has moved since the last build, and a conditional GET whose
// If-None-Match matches is answered 304 with no body — a dashboard polling
// an idle unit costs two header lines, not a re-serialization.
func (f *Fleet) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	if len(f.units) == 0 && q.Get("unit") == "" {
		body := map[string]interface{}{}
		f.addBlocks(body)
		writeJSON(w, http.StatusOK, body)
		return
	}
	s, _, ok := f.unit(w, q)
	if !ok {
		return
	}
	body, etag := s.statusDocument(f)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// addBlocks adds the daemon-wide blocks to a status document: "server"
// always, and "persistence", "scrape", "replication" and "role" when their
// providers are attached.
func (f *Fleet) addBlocks(body map[string]interface{}) {
	f.mu.Lock()
	persistence, scrapeFn, replication, role := f.persistence, f.scrape, f.replication, f.role
	f.mu.Unlock()
	body["server"] = map[string]interface{}{
		"panics":           f.panics.Load(),
		"requestTimeoutMs": DefaultRequestTimeout.Milliseconds(),
	}
	if persistence != nil {
		body["persistence"] = persistence()
	}
	if scrapeFn != nil {
		body["scrape"] = scrapeFn()
	}
	if replication != nil {
		body["replication"] = replication()
	}
	if role != nil {
		body["role"] = role()
	}
}

// fleetUnitJSON is one unit's row in a /api/fleet/status page.
type fleetUnitJSON struct {
	Unit             int    `json:"unit"`
	Name             string `json:"name"`
	TicksIngested    int    `json:"ticksIngested"`
	Verdicts         int    `json:"verdicts"`
	AbnormalVerdicts int    `json:"abnormalVerdicts"`
	DegradedVerdicts int    `json:"degradedVerdicts"`
	SkippedRounds    int    `json:"skippedRounds"`
	GapCells         int    `json:"gapCells"`
	Deactivated      []int  `json:"deactivated"`
	LastVerdictTick  int    `json:"lastVerdictTick"` // -1 before the first
}

// fleetSummary snapshots one unit's row under its own lock.
func (s *Server) fleetSummary(unit int) fleetUnitJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.online.Health()
	deactivated := make([]int, 0)
	for d, down := range h.AutoDeactivated {
		if down {
			deactivated = append(deactivated, d)
		}
	}
	return fleetUnitJSON{
		Unit:             unit,
		Name:             s.unitName,
		TicksIngested:    s.online.Processor().Ticks(),
		Verdicts:         s.history.len(),
		AbnormalVerdicts: s.history.abnormal,
		DegradedVerdicts: h.DegradedVerdicts,
		SkippedRounds:    h.SkippedRounds,
		GapCells:         h.GapCells,
		Deactivated:      deactivated,
		LastVerdictTick:  s.history.lastTick(),
	}
}

// pageParams parses the offset (default 0) and limit (default
// defaultFleetPage, clamped to maxFleetPage) of a fleet page, answering
// malformed input 400.
func pageParams(w http.ResponseWriter, q url.Values) (offset, limit int, ok bool) {
	if offset, ok = queryInt(q, "offset", 0); !ok {
		http.Error(w, "bad offset", http.StatusBadRequest)
		return 0, 0, false
	}
	if limit, ok = queryInt(q, "limit", defaultFleetPage); !ok || limit < 1 {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return 0, 0, false
	}
	return offset, min(limit, maxFleetPage), true
}

// handleFleetStatus serves GET /api/fleet/status?offset=&limit=:
// region-wide totals over every unit plus one page of per-unit summaries.
// A page starting past the last unit is an empty page (200), not an error;
// malformed pagination is a 400.
func (f *Fleet) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	offset, limit, ok := pageParams(w, r.URL.Query())
	if !ok {
		return
	}

	totals := struct {
		TicksIngested    int `json:"ticksIngested"`
		Verdicts         int `json:"verdicts"`
		AbnormalVerdicts int `json:"abnormalVerdicts"`
		DegradedVerdicts int `json:"degradedVerdicts"`
		SkippedRounds    int `json:"skippedRounds"`
		GapCells         int `json:"gapCells"`
		DeactivatedDBs   int `json:"deactivatedDbs"`
	}{}
	page := make([]fleetUnitJSON, 0, limit)
	for i := range f.units {
		row := f.units[i].fleetSummary(i)
		totals.TicksIngested += row.TicksIngested
		totals.Verdicts += row.Verdicts
		totals.AbnormalVerdicts += row.AbnormalVerdicts
		totals.DegradedVerdicts += row.DegradedVerdicts
		totals.SkippedRounds += row.SkippedRounds
		totals.GapCells += row.GapCells
		totals.DeactivatedDBs += len(row.Deactivated)
		if i >= offset && len(page) < limit {
			page = append(page, row)
		}
	}

	body := map[string]interface{}{
		"units":  len(f.units),
		"offset": offset,
		"limit":  limit,
		"count":  len(page),
		"totals": totals,
		"page":   page,
	}
	f.addBlocks(body)
	f.mu.Lock()
	incidents := f.incidents
	f.mu.Unlock()
	if incidents != nil {
		body["incidents"] = incidents.Status()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleVerdicts serves the selected unit's newest retained verdicts:
// GET /api/verdicts?unit=&limit=&since= as a bare array, and
// /api/fleet/verdicts with the same parameters inside an envelope naming
// the unit. It reads the unit's published history view and takes no lock,
// so it never waits on Push.
func (f *Fleet) handleVerdicts(w http.ResponseWriter, r *http.Request, envelope bool) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	s, unit, ok := f.unit(w, q)
	if !ok {
		return
	}
	limit, since, ok := s.pageQuery(w, q)
	if !ok {
		return
	}
	n, entries := s.history.view.Load().page(since, limit)
	if !envelope {
		writeVerdicts(w, arrayOpen, entries, arrayClose)
		return
	}
	// The envelope's keys in encoding/json's map order.
	head := make([]byte, 0, 80+len(s.nameJSON))
	head = append(head, `{"count":`...)
	head = strconv.AppendInt(head, int64(n), 10)
	head = append(head, `,"name":`...)
	head = append(head, s.nameJSON...)
	head = append(head, `,"unit":`...)
	head = strconv.AppendInt(head, int64(unit), 10)
	head = append(head, `,"verdicts":[`...)
	writeVerdicts(w, head, entries, envelopeClose)
}

// handleIncidents serves GET /api/incidents?offset=&limit=: one page of
// clustered fleet incidents (retained closed clusters plus live snapshots
// of open ones), cluster-ID ascending. 404 when the incident stage is not
// enabled; malformed pagination is a 400 like every fleet endpoint.
func (f *Fleet) handleIncidents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	f.mu.Lock()
	agg := f.incidents
	f.mu.Unlock()
	if agg == nil {
		http.Error(w, "incident aggregation not enabled", http.StatusNotFound)
		return
	}
	offset, limit, ok := pageParams(w, r.URL.Query())
	if !ok {
		return
	}
	total, rows := agg.Page(offset, limit)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"total":     total,
		"offset":    offset,
		"limit":     limit,
		"count":     len(rows),
		"status":    agg.Status(),
		"incidents": rows,
	})
}
