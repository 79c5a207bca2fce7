// Package server exposes a DBCatcher online detector over HTTP, the
// "bypass monitoring system" integration surface of Fig. 2: operators and
// dashboards read unit status, recent verdicts, and the active thresholds,
// and the online feedback loop can swap thresholds in.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbcatcher/internal/feedback"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/thresholds"
	"dbcatcher/internal/window"
)

// DefaultRequestTimeout bounds a single API request. The verdict routes
// run outside the bound (see harden).
const DefaultRequestTimeout = 10 * time.Second

// maxBodyBytes bounds a POST body the API decodes: a thresholds document
// for 14 KPIs is under 1 KB, a feedback mark under 100 bytes.
const maxBodyBytes = 16 << 10

// Server holds one unit's state behind the API: its judge, its verdict
// history and its cached status document. A Fleet serves its routes. It is
// safe for concurrent use; the feeder goroutine pushes samples while
// handlers read.
type Server struct {
	mu     sync.Mutex
	online *monitor.Online
	// history is the bounded verdict history, newest last. Push and
	// RestoreHistory write it under mu; the verdict routes read its
	// published view without mu.
	history  *verdictLog
	unitName string
	nameJSON []byte // unitName, encoded once
	// restoredThrough is the newest verdict tick loaded via
	// RestoreHistory; Push drops regenerated verdicts at or below it
	// (they are already in the history).
	restoredThrough int
	// fb, when set, backs the /api/feedback DBA-marking endpoint.
	fb *feedback.Store
	// relearnStatus and relearnTrigger, when set, back /api/relearn and
	// the relearn block of /api/status (e.g. relearn.Supervisor).
	relearnStatus  func() interface{}
	relearnTrigger func() error
	// gen is the status generation: every state change bumps it, and the
	// cached /api/status document (statusBody/statusETag, guarded by mu)
	// is rebuilt only when the generation it was built at goes stale.
	gen        atomic.Int64
	statusGen  int64
	statusBody []byte
	statusETag string
}

// New wraps the online detector. maxHistory bounds the verdict buffer
// (default 256).
func New(o *monitor.Online, unitName string, maxHistory int) *Server {
	if maxHistory <= 0 {
		maxHistory = 256
	}
	return &Server{
		online: o, history: newVerdictLog(maxHistory),
		unitName: unitName, nameJSON: appendString(nil, unitName),
		restoredThrough: -1,
	}
}

// SetFeedback attaches the DBA judgment-record store behind /api/feedback.
func (s *Server) SetFeedback(fb *feedback.Store) {
	s.gen.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fb = fb
}

// SetRelearn attaches the relearning supervisor's surface: status backs
// GET /api/relearn and the "relearn" block of /api/status, trigger backs
// POST /api/relearn (manual retrain). Either may be nil.
func (s *Server) SetRelearn(status func() interface{}, trigger func() error) {
	s.gen.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.relearnStatus = status
	s.relearnTrigger = trigger
}

// RestoreHistory seeds the verdict buffer from persisted verdicts (oldest
// first), e.g. store.Recovered.VerdictHistory. While the resumed detector
// catches up it regenerates verdicts it already judged before the restart;
// Push recognizes them by tick and skips re-recording.
func (s *Server) RestoreHistory(vs []monitor.Verdict) {
	s.gen.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range vs {
		s.history.append(&vs[i])
		if vs[i].Tick > s.restoredThrough {
			s.restoredThrough = vs[i].Tick
		}
	}
	s.history.publish()
}

// Push feeds one sample through the detector and records any verdict. A nil
// sample records a wholly-missed collection tick.
func (s *Server) Push(sample [][]float64) (*monitor.Verdict, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.online.Push(sample)
	if err != nil {
		return nil, err
	}
	s.gen.Add(1) // every tick moves ticksIngested/health in /api/status
	s.record(v)
	return v, nil
}

// record appends a verdict Push returned to the history, unless it is a
// regenerated one RestoreHistory already holds. The caller holds mu.
func (s *Server) record(v *monitor.Verdict) {
	if v != nil && v.Tick > s.restoredThrough {
		s.history.append(v)
		s.history.publish()
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Invalidate marks the cached /api/status document stale. Mutating
// endpoints and Push call it themselves; attach it to external providers
// (scrape rounds, relearn completion) whose state feeds a status block the
// server cannot observe changing.
func (s *Server) Invalidate() { s.gen.Add(1) }

// etagMatch evaluates an If-None-Match header against the current entity
// tag per RFC 7232 §3.2: a comma-separated list of entity-tags compared
// with the weak comparison (a W/ prefix is ignored), or the special form
// "*" which matches any current representation. Substring matching would
// be both too loose (a tag embedded in a longer token) and too strict
// ("*" never matching).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "*" {
			return true
		}
		if strings.TrimPrefix(tok, "W/") == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}

// statusDocument returns the unit's marshaled status body, with f's
// daemon-wide blocks, and its ETag, rebuilding only on a stale
// generation. The generation is sampled before taking the lock; a bump
// racing the rebuild merely causes one extra rebuild on the next request,
// never a stale document being pinned.
func (s *Server) statusDocument(f *Fleet) ([]byte, string) {
	g := s.gen.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.statusBody != nil && s.statusGen == g {
		return s.statusBody, s.statusETag
	}
	kpis, dbs := s.online.Processor().Shape()
	h := s.online.Health()
	deactivated := make([]int, 0, dbs)
	for d, down := range h.AutoDeactivated {
		if down {
			deactivated = append(deactivated, d)
		}
	}
	body := map[string]interface{}{
		"unit":             s.unitName,
		"kpis":             kpis,
		"databases":        dbs,
		"ticksIngested":    s.online.Processor().Ticks(),
		"verdicts":         s.history.len(),
		"abnormalVerdicts": s.history.abnormal,
		"health": map[string]interface{}{
			"gapCells":         h.GapCells,
			"missedTicks":      h.MissedTicks,
			"deactivations":    h.Deactivations,
			"reactivations":    h.Reactivations,
			"degradedVerdicts": h.DegradedVerdicts,
			"skippedRounds":    h.SkippedRounds,
			"deactivated":      deactivated,
			"silentRecent":     h.SilentRecent,
		},
	}
	if s.relearnStatus != nil {
		body["relearn"] = s.relearnStatus()
	}
	f.addBlocks(body)
	b, err := json.Marshal(body)
	if err != nil {
		b = []byte(`{"error":"status marshal failed"}`)
	}
	b = append(b, '\n')
	sum := fnv.New64a()
	sum.Write(b)
	s.statusBody = b
	s.statusETag = fmt.Sprintf("%q", fmt.Sprintf("st-%016x", sum.Sum64()))
	s.statusGen = g
	return s.statusBody, s.statusETag
}

// handleRelearn exposes the relearning supervisor: GET returns its status,
// POST triggers a manual retrain (202 when accepted, 409 when an attempt
// is already in flight or the supervisor refuses).
func (s *Server) handleRelearn(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status, trigger := s.relearnStatus, s.relearnTrigger
	s.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		if status == nil {
			http.Error(w, "relearning not enabled", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, status())
	case http.MethodPost:
		if trigger == nil {
			http.Error(w, "relearning not enabled", http.StatusNotFound)
			return
		}
		if err := trigger(); err != nil {
			writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
			return
		}
		s.gen.Add(1)
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "retrain started"})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleFeedback lets a DBA mark judgment records (POST) and inspect
// recent marking performance (GET) — the online feedback module's
// integration surface (§III-D). Records flow through the attached store,
// and with persistence enabled, into the WAL.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fb := s.fb
	s.mu.Unlock()
	if fb == nil {
		http.Error(w, "no feedback store attached", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		recs := fb.Snapshot()
		type recJSON struct {
			Start     int  `json:"start"`
			Size      int  `json:"size"`
			Predicted bool `json:"predicted"`
			Actual    bool `json:"actual"`
		}
		out := struct {
			Count    int       `json:"count"`
			FMeasure float64   `json:"fMeasure"`
			Records  []recJSON `json:"records"`
		}{Count: len(recs), FMeasure: fb.FMeasure(len(recs))}
		for _, rec := range recs {
			out.Records = append(out.Records, recJSON{rec.Start, rec.Size, rec.Predicted, rec.Actual})
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var body struct {
			Start     int  `json:"start"`
			Size      int  `json:"size"`
			Predicted bool `json:"predicted"`
			Actual    bool `json:"actual"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		if body.Size <= 0 || body.Start < 0 {
			http.Error(w, "bad window", http.StatusUnprocessableEntity)
			return
		}
		fb.Add(feedback.Record{Start: body.Start, Size: body.Size, Predicted: body.Predicted, Actual: body.Actual})
		s.gen.Add(1)
		writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// decodeBody decodes r's JSON body into v. A body over maxBodyBytes is
// answered 413 before more of it is read, malformed JSON 400; either way
// it returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

// queryInt parses the named query parameter as a canonical non-negative
// decimal integer: ASCII digits only. fmt.Sscanf's "%d" (the previous
// parser) accepted trailing garbage ("5abc") and sign prefixes ("+5");
// a fleet dashboard paginating over thousands of units needs malformed
// input rejected hard, not best-effort parsed. An absent or empty
// parameter returns def; the second return is false on malformed or
// overflow-sized input.
func queryInt(query url.Values, name string, def int) (int, bool) {
	q := query.Get(name)
	if q == "" {
		return def, true
	}
	if len(q) > 18 { // longer than any plausible value; also bounds overflow
		return 0, false
	}
	for i := 0; i < len(q); i++ {
		if q[i] < '0' || q[i] > '9' {
			return 0, false
		}
	}
	v, err := strconv.Atoi(q)
	if err != nil {
		return 0, false
	}
	return v, true
}

// pageQuery parses the verdict routes' limit (default 50, clamped to the
// history bound) and since (-1 when absent) parameters. since=<tick>
// narrows to verdicts strictly newer than the given tick, so a dashboard
// can poll incrementally with the last tick it has seen instead of
// re-downloading full history. Malformed input is answered 400 here.
func (s *Server) pageQuery(w http.ResponseWriter, q url.Values) (limit, since int, ok bool) {
	limit, ok = queryInt(q, "limit", 50)
	if !ok || limit < 1 {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return 0, 0, false
	}
	since, ok = queryInt(q, "since", -1)
	if !ok {
		http.Error(w, "bad since", http.StatusBadRequest)
		return 0, 0, false
	}
	if limit > s.history.max {
		limit = s.history.max // the history never holds more anyway
	}
	return limit, since, true
}

type thresholdsJSON struct {
	Alpha        []float64 `json:"alpha"`
	Theta        float64   `json:"theta"`
	MaxTolerance int       `json:"maxTolerance"`
}

func (s *Server) handleThresholds(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		th := s.online.Thresholds()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, thresholdsJSON{
			Alpha: th.Alpha, Theta: th.Theta, MaxTolerance: th.MaxTolerance,
		})
	case http.MethodPost, http.MethodPut:
		var body thresholdsJSON
		if !decodeBody(w, r, &body) {
			return
		}
		th := window.Thresholds{
			Alpha: body.Alpha, Theta: body.Theta, MaxTolerance: body.MaxTolerance,
		}
		// Refuse operator-supplied values the threshold search itself could
		// never produce — NaN/Inf or outside the searchable domain — before
		// they reach the live judge (and, with persistence on, the WAL).
		if err := thresholds.DefaultRanges().Contains(th); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		s.mu.Lock()
		err := s.online.SetThresholds(th)
		s.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		s.gen.Add(1)
		writeJSON(w, http.StatusOK, map[string]string{"status": "updated"})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleExplain attributes the newest verdict judged since the process
// started to indicators (root-cause hints for operators): its window, each
// database's final state, and the non-level-3 findings of the judgment
// that decided it. It answers 404 until a round has been judged.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	v, exps := s.online.Explain()
	if v == nil {
		http.Error(w, "no judged verdict since start", http.StatusNotFound)
		return
	}
	type findingJSON struct {
		KPI   string  `json:"kpi"`
		Level string  `json:"level"`
		Score float64 `json:"bestScore"`
	}
	type expJSON struct {
		DB       int           `json:"db"`
		State    string        `json:"state"`
		Findings []findingJSON `json:"findings"`
	}
	out := struct {
		Start int       `json:"start"`
		Size  int       `json:"size"`
		DBs   []expJSON `json:"databases"`
	}{Start: v.Start, Size: v.Size}
	for _, e := range exps {
		ej := expJSON{DB: e.DB, State: e.State.String()}
		for _, f := range e.KPIs {
			if f.Level == window.Level3 {
				continue
			}
			ej.Findings = append(ej.Findings, findingJSON{
				KPI: f.KPI.String(), Level: f.Level.String(), Score: f.BestScore,
			})
		}
		out.DBs = append(out.DBs, ej)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleKPIs lists the monitored KPIs: the same document for every unit.
func handleKPIs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	type kpiJSON struct {
		ID          int    `json:"id"`
		Name        string `json:"name"`
		Correlation string `json:"correlation"`
	}
	out := make([]kpiJSON, 0, kpi.Count)
	for _, k := range kpi.All() {
		out = append(out, kpiJSON{ID: int(k), Name: k.String(), Correlation: k.Correlation().String()})
	}
	writeJSON(w, http.StatusOK, out)
}
