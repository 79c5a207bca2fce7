// Fleet aggregation: one HTTP surface over many per-unit Servers. The
// fleet daemon owns N units behind one scheduler; dashboards read
// region-wide totals and page through per-unit summaries instead of
// polling N ports. Pagination is strict — malformed offsets and limits
// are rejected with 400 exactly like the per-unit API's limit parameter.
package server

import (
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"dbcatcher/internal/incident"
)

// maxFleetPage bounds one /api/fleet/status page so a single request can
// never serialize an unbounded number of unit summaries.
const maxFleetPage = 256

// defaultFleetPage is the /api/fleet/status page size when no limit is
// given.
const defaultFleetPage = 32

// Fleet serves the aggregated API over a fixed set of per-unit Servers.
// The unit set is immutable after construction; per-unit state is read
// through each Server's own lock, or for verdict pages through its
// published history view, so handlers are safe against the scheduler
// pushing rounds concurrently.
type Fleet struct {
	units []*Server

	mu          sync.Mutex
	persistence func() interface{}
	scrape      func() interface{}
	replication func() interface{}
	incidents   *incident.Aggregator
	panics      atomic.Int64
	// ha holds the role/readiness wiring (see ha.go).
	ha haState
}

// NewFleet builds the aggregation surface. The slice is not copied; it
// must not be mutated afterwards.
func NewFleet(units []*Server) *Fleet {
	return &Fleet{units: units}
}

// SetPersistence attaches a provider embedded as the "persistence" block
// of /api/fleet/status (e.g. store.FleetPersister.Status).
func (f *Fleet) SetPersistence(fn func() interface{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.persistence = fn
}

// SetScrape attaches a provider embedded as the "scrape" block of
// /api/fleet/status (e.g. every unit's scraper health in fleet scrape
// ingestion mode).
func (f *Fleet) SetScrape(fn func() interface{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scrape = fn
}

// SetReplication attaches a provider embedded as the "replication" block
// of /api/fleet/status (e.g. replicate.Server.StatusBlock: the fleet WAL's
// served extent plus every tracked standby's lag).
func (f *Fleet) SetReplication(fn func() interface{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replication = fn
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

// Handler returns the fleet routes, hardened like the per-unit API:
// per-request timeout on every route but /api/fleet/verdicts (see harden),
// panic recovery into a JSON 500.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", f.ha.handleReadyz)
	mux.HandleFunc("/api/fleet/status", f.handleStatus)
	mux.HandleFunc("/api/incidents", f.handleIncidents)
	return harden(mux, DefaultRequestTimeout, "/api/fleet/verdicts", f.handleVerdicts, f.recordPanic)
}

func (f *Fleet) recordPanic(v interface{}, stack []byte) {
	if f.panics.Add(1) == 1 {
		log.Printf("server: recovered fleet handler panic: %v\n%s", v, stack)
		return
	}
	log.Printf("server: recovered fleet handler panic: %v (stack logged on first occurrence)", v)
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

// handleStatus serves GET /api/fleet/status?offset=&limit=: region-wide
// totals over every unit plus one page of per-unit summaries. A page
// starting past the last unit is an empty page (200), not an error;
// malformed pagination is a 400.
func (f *Fleet) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	offset, ok := queryInt(q, "offset", 0)
	if !ok {
		http.Error(w, "bad offset", http.StatusBadRequest)
		return
	}
	limit, ok := queryInt(q, "limit", defaultFleetPage)
	if !ok || limit < 1 {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return
	}
	if limit > maxFleetPage {
		limit = maxFleetPage
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

	f.mu.Lock()
	persistence := f.persistence
	scrapeFn := f.scrape
	replication := f.replication
	incidents := f.incidents
	f.mu.Unlock()
	body := map[string]interface{}{
		"units":  len(f.units),
		"offset": offset,
		"limit":  limit,
		"count":  len(page),
		"totals": totals,
		"page":   page,
		"server": map[string]interface{}{
			"panics":           f.panics.Load(),
			"requestTimeoutMs": DefaultRequestTimeout.Milliseconds(),
		},
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
	if incidents != nil {
		body["incidents"] = incidents.Status()
	}
	if role := f.ha.roleBlock(); role != nil {
		body["role"] = role
	}
	writeJSON(w, http.StatusOK, body)
}

// handleVerdicts serves GET /api/fleet/verdicts?unit=&limit=&since=: one
// unit's recent verdict stream. The unit key is mandatory; an out-of-range
// unit is a 404 and malformed parameters are 400s. Like the per-unit
// /api/verdicts it reads the unit's published history view and takes no
// lock.
func (f *Fleet) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	if q.Get("unit") == "" {
		http.Error(w, "unit required", http.StatusBadRequest)
		return
	}
	unit, ok := queryInt(q, "unit", 0)
	if !ok {
		http.Error(w, "bad unit", http.StatusBadRequest)
		return
	}
	if unit >= len(f.units) {
		http.Error(w, "no such unit", http.StatusNotFound)
		return
	}
	s := f.units[unit]
	limit, since, ok := s.pageQuery(w, q)
	if !ok {
		return
	}
	n, entries := s.history.view.Load().page(since, limit)
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
	q := r.URL.Query()
	offset, ok := queryInt(q, "offset", 0)
	if !ok {
		http.Error(w, "bad offset", http.StatusBadRequest)
		return
	}
	limit, ok := queryInt(q, "limit", defaultFleetPage)
	if !ok || limit < 1 {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return
	}
	if limit > maxFleetPage {
		limit = maxFleetPage
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
