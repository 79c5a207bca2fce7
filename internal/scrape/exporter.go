package scrape

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// FaultMode is an injectable exporter-side failure, the scrape layer's
// equivalent of workload.FaultPlan: where the fault plan models what the
// collection agents lose, FaultMode models how a scrape target misbehaves
// on the wire.
type FaultMode int

const (
	// FaultNone serves normally.
	FaultNone FaultMode = iota
	// FaultHang never responds; the request parks until the client gives
	// up (exercises per-try timeouts and the round deadline).
	FaultHang
	// Fault5xx answers 500 Internal Server Error.
	Fault5xx
	// FaultTruncate sends a 200 with the first half of the body and stops
	// (exercises the strict payload parsers).
	FaultTruncate
	// FaultGarbage sends a 200 whose body is neither payload format.
	FaultGarbage
	// FaultDrop severs the TCP connection mid-response without a status
	// line (exercises transport-level error handling).
	FaultDrop
	// FaultFlap alternates: every other request succeeds, the rest 500
	// (exercises breaker hysteresis — consecutive-failure counting must
	// not trip on an intermittent target).
	FaultFlap
	// FaultStale serves tick and values frozen at the moment the fault was
	// installed (exercises staleness detection and mark-down).
	FaultStale
	// FaultFormatFlip serves a well-formed response in the *other*
	// exposition format than the one negotiated — a target that switched
	// format mid-flight (exercises the parsers' refusal to silently accept
	// the wrong format: the column degrades, the round never wedges).
	FaultFormatFlip
)

// String names the mode (also the -scrape-fault flag spelling).
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultHang:
		return "hang"
	case Fault5xx:
		return "5xx"
	case FaultTruncate:
		return "truncate"
	case FaultGarbage:
		return "garbage"
	case FaultDrop:
		return "drop"
	case FaultFlap:
		return "flap"
	case FaultStale:
		return "stale"
	case FaultFormatFlip:
		return "format-flip"
	}
	return fmt.Sprintf("FaultMode(%d)", int(m))
}

// ParseFaultMode parses a FaultMode name.
func ParseFaultMode(s string) (FaultMode, error) {
	for m := FaultNone; m <= FaultFormatFlip; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("scrape: unknown fault mode %q", s)
}

// Fault scripts one database's misbehaviour. Count bounds how many requests
// it affects (0 = until cleared).
type Fault struct {
	Mode  FaultMode
	Count int
}

// targetFault is one database's live fault state.
type targetFault struct {
	fault    Fault
	affected int // requests hit so far by the current fault
	requests int // total requests served (drives FaultFlap parity)
	// frozenTick/frozenVals hold the sample captured when a FaultStale was
	// installed; freezing values rather than rendered bytes lets a stale
	// database answer in whichever format each request negotiates.
	frozenTick int
	frozenVals []float64
	// stalePending requests capture of the next sample a response carries.
	stalePending bool
}

// next counts one request against the fault and returns its mode for that
// request: FaultNone when the fault is cleared, spent (Count) or on the
// passing half of a flap, Fault5xx on the failing half, otherwise the
// scripted mode.
func (tf *targetFault) next() FaultMode {
	tf.requests++
	mode := tf.fault.Mode
	if mode != FaultNone {
		tf.affected++
		if tf.fault.Count > 0 && tf.affected > tf.fault.Count {
			*tf = targetFault{requests: tf.requests}
			mode = FaultNone
		}
	}
	if mode == FaultFlap {
		if tf.requests%2 == 1 {
			return FaultNone
		}
		return Fault5xx
	}
	return mode
}

// Exporter serves a unit's KPI vectors over HTTP: GET /kpis returns every
// database's current-tick sample in one body (a unit body, see AppendUnit),
// and GET /db/{db}/kpis returns one database's. Each is the bespoke JSON
// payload or, when the request's Accept header asks for text/plain,
// Prometheus text exposition. Faults are injectable per database so tests
// and demos can script the full set of real-world scrape failures.
type Exporter struct {
	feed *Feed

	mu       sync.Mutex
	faults   []targetFault
	buf      []byte      // response build buffer, reused
	vecs     [][]float64 // per-db Read scratch
	payloads []Payload   // per-db render scratch
}

// NewExporter builds the exporter over a feed.
func NewExporter(feed *Feed) *Exporter {
	kpis, dbs := feed.Shape()
	e := &Exporter{feed: feed}
	e.faults = make([]targetFault, dbs)
	e.vecs = make([][]float64, dbs)
	cells := make([]float64, dbs*kpis)
	for d := range e.vecs {
		e.vecs[d] = cells[d*kpis : (d+1)*kpis : (d+1)*kpis]
	}
	e.payloads = make([]Payload, dbs)
	return e
}

// SetFault installs (or with Fault{} clears) database db's scripted fault.
func (e *Exporter) SetFault(db int, f Fault) error {
	_, dbs := e.feed.Shape()
	if db < 0 || db >= dbs {
		return fmt.Errorf("scrape: fault targets database %d of %d", db, dbs)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faults[db] = targetFault{fault: f, stalePending: f.Mode == FaultStale}
	return nil
}

// Handler returns the exporter's routes: the whole unit at /kpis, one scrape
// target per database at /db/{db}/kpis, plus /healthz.
func (e *Exporter) Handler() http.Handler { return e }

// ServeHTTP routes GET (and HEAD) requests for the exporter's three paths
// itself: a ServeMux costs more to set up than the rest of the exporter, and
// one is built per unit.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	_, dbs := e.feed.Shape()
	path := r.URL.Path
	switch path {
	case "/kpis":
		e.serve(w, r, 0, dbs)
		return
	case "/healthz":
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
		return
	}
	rest, ok := strings.CutPrefix(path, "/db/")
	if num, ok2 := strings.CutSuffix(rest, "/kpis"); ok && ok2 {
		db, err := strconv.Atoi(num)
		if err != nil || db < 0 || db >= dbs {
			http.Error(w, "unknown database", http.StatusNotFound)
			return
		}
		e.serve(w, r, db, db+1)
		return
	}
	http.NotFound(w, r)
}

// formatFor resolves a scrape request's negotiated format: asking for
// text/plain (the Prometheus exposition content type) selects FormatProm,
// anything else the JSON payload.
func formatFor(r *http.Request) Format {
	if strings.Contains(r.Header.Get("Accept"), "text/plain") {
		return FormatProm
	}
	return FormatJSON
}

// serve answers one scrape of databases lo..hi-1.
func (e *Exporter) serve(w http.ResponseWriter, r *http.Request, lo, hi int) {
	e.mu.Lock()
	body, served, mode := e.renderLocked(lo, hi, formatFor(r))
	e.mu.Unlock()

	switch mode {
	case FaultHang:
		// Park until the scraper abandons the request; never write.
		<-r.Context().Done()
		return
	case Fault5xx:
		http.Error(w, "injected fault", http.StatusInternalServerError)
		return
	case FaultGarbage:
		w.Header().Set("Content-Type", served.contentType())
		_, _ = w.Write([]byte("<<<this is not a payload at all>>>"))
		return
	case FaultTruncate:
		w.Header().Set("Content-Type", served.contentType())
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body[:len(body)/2])
		// Returning without the rest aborts the response mid-body: the
		// declared Content-Length makes the client see an unexpected EOF.
		panic(http.ErrAbortHandler)
	case FaultDrop:
		panic(http.ErrAbortHandler) // severs the connection, no response
	}

	if body == nil {
		http.Error(w, "no sample published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", served.contentType())
	_, _ = w.Write(body)
}

// renderLocked counts one request against the fault of each database in
// lo..hi-1 and resolves the response's: the wire fault (hang, 5xx,
// truncate, garbage, drop, the failing half of a flap, format-flip) of the
// lowest-indexed database that has one applies to the whole response,
// while a stale database freezes only its own samples. When the response
// should carry data it renders the body in the served format. A nil body
// with FaultNone means no tick has been published yet.
func (e *Exporter) renderLocked(lo, hi int, f Format) (body []byte, served Format, mode FaultMode) {
	for d := lo; d < hi; d++ {
		if m := e.faults[d].next(); mode == FaultNone && m != FaultStale {
			mode = m
		}
	}
	switch mode {
	case FaultFormatFlip:
		if f == FormatJSON {
			f = FormatProm
		} else {
			f = FormatJSON
		}
		mode = FaultNone
	case FaultHang, Fault5xx, FaultGarbage, FaultDrop:
		return nil, f, mode
	}

	tick, ok := e.feed.Read(lo, e.vecs[lo:hi])
	if !ok {
		return nil, f, mode
	}
	for d := lo; d < hi; d++ {
		p := &e.payloads[d]
		p.Tick, p.DB, p.Values = tick, d, e.vecs[d]
		if tf := &e.faults[d]; tf.fault.Mode == FaultStale {
			if tf.stalePending {
				tf.frozenTick = tick
				tf.frozenVals = append(tf.frozenVals[:0], e.vecs[d]...)
				tf.stalePending = false
			}
			p.Tick, p.Values = tf.frozenTick, tf.frozenVals
		}
	}
	e.buf = AppendUnit(e.buf[:0], e.payloads[lo:hi], f)
	// The handler writes after the lock drops, so it must not hold a buffer
	// a concurrent render could rewrite: copy out.
	return append([]byte(nil), e.buf...), f, mode
}
