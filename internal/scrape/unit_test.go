package scrape

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dbcatcher/internal/mathx"
)

// serveRecorded answers one GET of path from the exporter in memory, asking
// for format f.
func serveRecorded(t *testing.T, exp *Exporter, path string, f Format) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Accept", f.accept())
	rec := httptest.NewRecorder()
	exp.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// A unit body round-trips every database's vector bit for bit, NaN cells
// included, in both formats: parsing GET /kpis yields exactly what parsing
// each GET /db/{db}/kpis yields. With one database the unit body is the
// per-database body, byte for byte, and both are the exposition and JSON
// shapes the wire has always had.
func TestScraperUnitBodyRoundTrip(t *testing.T) {
	feed := NewFeed(4, 3)
	exp := NewExporter(feed)
	sample := [][]float64{
		{1.5, math.NaN(), -3e-9},
		{4e12, 0.1, math.NaN()},
		{math.SmallestNonzeroFloat64, -0.0, 1.0 / 3.0},
		{math.NaN(), math.MaxFloat64, 42},
	}
	if err := feed.Publish(7, sample); err != nil {
		t.Fatal(err)
	}
	for f := FormatJSON; f <= FormatProm; f++ {
		code, body := serveRecorded(t, exp, "/kpis", f)
		if code != http.StatusOK {
			t.Fatalf("%v: GET /kpis = %d", f, code)
		}
		unit, err := ParseUnit(body, nil, f)
		if err != nil {
			t.Fatalf("%v: %v\n%s", f, err, body)
		}
		if len(unit) != 3 {
			t.Fatalf("%v: unit body carries %d databases, want 3", f, len(unit))
		}
		for db := range unit {
			code, one := serveRecorded(t, exp, fmt.Sprintf("/db/%d/kpis", db), f)
			if code != http.StatusOK {
				t.Fatalf("%v db %d: GET = %d", f, db, code)
			}
			var p Payload
			if err := ParseBody(one, &p, f); err != nil {
				t.Fatalf("%v db %d: %v", f, db, err)
			}
			u := unit[db]
			if u.Tick != 7 || u.DB != db || u.Tick != p.Tick || u.DB != p.DB || len(u.Values) != len(p.Values) {
				t.Fatalf("%v db %d: unit %+v, per-database %+v", f, db, u, p)
			}
			for k := range p.Values {
				if math.Float64bits(u.Values[k]) != math.Float64bits(p.Values[k]) || !sameCell(u.Values[k], sample[k][db]) {
					t.Fatalf("%v db %d kpi %d: unit %v, per-database %v, published %v", f, db, k, u.Values[k], p.Values[k], sample[k][db])
				}
			}
		}
	}

	single := NewFeed(3, 1)
	if err := single.Publish(9, [][]float64{{1.25}, {math.NaN()}, {-7e3}}); err != nil {
		t.Fatal(err)
	}
	one := NewExporter(single)
	for f, want := range map[Format]string{
		FormatProm: "# TYPE dbcatcher_tick gauge\n" +
			"dbcatcher_tick{db=\"0\"} 9\n" +
			"# TYPE dbcatcher_kpi gauge\n" +
			"dbcatcher_kpi{db=\"0\",kpi=\"0\"} 1.25\n" +
			"dbcatcher_kpi{db=\"0\",kpi=\"1\"} NaN\n" +
			"dbcatcher_kpi{db=\"0\",kpi=\"2\"} -7000\n",
		FormatJSON: `{"tick":9,"db":0,"values":[1.25,null,-7000]}` + "\n",
	} {
		_, unitBody := serveRecorded(t, one, "/kpis", f)
		_, dbBody := serveRecorded(t, one, "/db/0/kpis", f)
		if string(unitBody) != want || string(dbBody) != want {
			t.Fatalf("%v one-database bodies:\nunit:\n%s\nper-database:\n%s\nwant:\n%s", f, unitBody, dbBody, want)
		}
	}
}

// bodyTransport answers every request with a 200 carrying its path's
// canned body, in memory, and counts the requests. Rounds with several
// endpoints call it from several workers at once.
type bodyTransport struct {
	bodies map[string][]byte

	mu   sync.Mutex
	reqs map[string]int
}

func (b *bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	b.mu.Lock()
	b.reqs[req.URL.Path]++
	b.mu.Unlock()
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(bytes.NewReader(b.bodies[req.URL.Path])),
		Request:    req,
	}, nil
}

// A unit endpoint takes exactly its databases, in index order, each with
// the configured KPI count; any other body fails the whole fetch, every
// member's column with it, as a truncated body always has.
func TestScraperUnitRejectsMalformedBodies(t *testing.T) {
	const kpis, dbs = 2, 3
	healthy := []Payload{
		{Tick: 3, DB: 0, Values: []float64{1, math.NaN()}},
		{Tick: 3, DB: 1, Values: []float64{2.5, -4}},
		{Tick: 3, DB: 2, Values: []float64{8, 9}},
	}
	fetch := func(f Format, body []byte) (RoundReport, Health) {
		t.Helper()
		tr := &bodyTransport{bodies: map[string][]byte{"/kpis": body}, reqs: map[string]int{}}
		s, err := New(Config{
			Targets:     SelfTargets("http://unit", dbs),
			KPIs:        kpis,
			Format:      f,
			MaxAttempts: 1,
			Client:      &http.Client{Transport: tr},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := s.Round(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if tr.reqs["/kpis"] != 1 {
			t.Fatalf("%d requests, want 1", tr.reqs["/kpis"])
		}
		return rep, s.Health()
	}
	with := func(ps ...Payload) []Payload { return ps }
	for f := FormatJSON; f <= FormatProm; f++ {
		body := AppendUnit(nil, healthy, f)
		if rep, _ := fetch(f, body); rep.Arrived != dbs {
			t.Fatalf("%v: healthy unit body: %+v", f, rep)
		}
		other := FormatProm
		if f == FormatProm {
			other = FormatJSON
		}
		foreign := healthy[2]
		foreign.DB = 5
		short := healthy[1]
		short.Values = short.Values[:1]
		cases := map[string][]byte{
			"missing last":  AppendUnit(nil, healthy[:2], f),
			"missing first": AppendUnit(nil, healthy[1:], f),
			"extra":         AppendUnit(nil, with(healthy[0], healthy[1], healthy[2], Payload{Tick: 3, DB: 3, Values: []float64{1, 2}}), f),
			"duplicate":     AppendUnit(nil, with(healthy[0], healthy[1], healthy[1], healthy[2]), f),
			"reordered":     AppendUnit(nil, with(healthy[0], healthy[2], healthy[1]), f),
			"foreign":       AppendUnit(nil, with(healthy[0], healthy[1], foreign), f),
			"short vector":  AppendUnit(nil, with(healthy[0], short, healthy[2]), f),
			"wrong format":  AppendUnit(nil, healthy, other),
		}
		if f == FormatProm {
			// The three one-database bodies back to back: every database
			// present and in order, but the families interleave.
			var concat []byte
			for i := range healthy {
				concat = AppendBody(concat, &healthy[i], f)
			}
			cases["tick after a KPI"] = concat
		}
		// Every prefix that cuts into the body; JSON's final newline is
		// whitespace after a complete value.
		cuts := len(body)
		if f == FormatJSON {
			cuts--
		}
		for cut := 0; cut < cuts; cut++ {
			cases[fmt.Sprintf("truncated at byte %d", cut)] = body[:cut]
		}
		for name, bad := range cases {
			rep, h := fetch(f, bad)
			if rep.Arrived != 0 || rep.Missing != dbs {
				t.Fatalf("%v %s: report %+v, want every column missing\n%s", f, name, rep, bad)
			}
			for _, th := range h.Targets {
				if th.Failures != 1 || th.LastError == "" {
					t.Fatalf("%v %s: db %d health %+v", f, name, th.DB, th)
				}
			}
		}
	}
}

// The breaker lifecycle of a unit endpoint, with the wire requests of each
// round: a fault on one database fails the unit's one request, so every
// column goes NaN together and the endpoint's breaker trips, skips, probes
// and closes as one. While closed and healthy each round sends exactly one
// request, while open none, and each half-open probe one.
func TestScraperUnitBreakerLifecycle(t *testing.T) {
	p := newUnitPipe(t, 2, 2, nil)
	p.exp.SetFault(1, Fault{Mode: Fault5xx}) // permanent until cleared

	// Rounds 0-1 fail closed with MaxAttempts 3 each (trip at the end of
	// round 1), 2-4 are skipped open, 5 probes and fails (re-open), 6-8
	// are skipped, 9 probes and heals, 10-11 are healthy.
	wantReqs := []int64{3, 3, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1}
	wantState := []string{"closed", "open", "open", "open", "open", "open", "open", "open", "open", "closed", "closed", "closed"}
	for round := range wantReqs {
		if round == 9 {
			p.exp.SetFault(1, Fault{})
		}
		before := p.unitReqs.Load()
		p.publish(t, round, sampleFor(2, 2, round))
		_, rep := p.round(t)
		if n := p.unitReqs.Load() - before; n != wantReqs[round] {
			t.Fatalf("round %d: %d requests, want %d", round, n, wantReqs[round])
		}
		h := p.s.Health()
		for _, th := range h.Targets {
			if th.Breaker != wantState[round] {
				t.Fatalf("round %d: db %d breaker %q, want %q", round, th.DB, th.Breaker, wantState[round])
			}
		}
		switch healthy := round >= 9; {
		case healthy && (rep.Arrived != 2 || rep.Missing != 0):
			t.Fatalf("round %d: healthy report %+v", round, rep)
		case !healthy && (rep.Arrived != 0 || rep.Missing != 2):
			t.Fatalf("round %d: faulted report %+v", round, rep)
		case wantReqs[round] == 0 && rep.Skipped != 2:
			t.Fatalf("round %d: open-breaker report %+v", round, rep)
		}
	}
	h := p.s.Health()
	a, b := h.Targets[0], h.Targets[1]
	if a.BreakerTrips != 2 || a.Probes != 2 || a.SkippedRounds != 6 || a.Scrapes != 6 || a.Successes != 3 {
		t.Fatalf("endpoint stats = %+v", a)
	}
	b.DB = a.DB
	if a != b {
		t.Fatalf("one endpoint, two health entries:\n%+v\n%+v", a, b)
	}
	if a.URL != p.ts.URL+"/kpis" {
		t.Fatalf("health URL %q", a.URL)
	}
	for db := range p.reqs {
		if n := p.reqs[db].Load(); n != 0 {
			t.Fatalf("per-database route of db %d requested %d times", db, n)
		}
	}
}

// Staleness follows each database's own tick in the unit body: one frozen
// database drops only its own column after StaleRounds, while its
// neighbours in the same body stay fresh.
func TestScraperUnitStaleDatabase(t *testing.T) {
	p := newUnitPipe(t, 2, 3, nil)
	p.publish(t, 0, sampleFor(2, 3, 0))
	p.round(t)
	if err := p.exp.SetFault(1, Fault{Mode: FaultStale}); err != nil {
		t.Fatal(err)
	}
	// Round 1 captures tick 1 (still fresh), round 2 re-serves it once
	// (tolerated), round 3 is past the StaleRounds budget of 2.
	for tick := 1; tick <= 3; tick++ {
		p.publish(t, tick, sampleFor(2, 3, tick))
		got, rep := p.round(t)
		dropped := tick == 3
		if math.IsNaN(got[0][1]) != dropped {
			t.Fatalf("tick %d: frozen column = %v, dropped %v", tick, got[0][1], dropped)
		}
		if !dropped && got[0][1] != sampleFor(2, 3, 1)[0][1] {
			t.Fatalf("tick %d: frozen column served %v, want the tick-1 value", tick, got[0][1])
		}
		for _, db := range []int{0, 2} {
			if got[0][db] != sampleFor(2, 3, tick)[0][db] {
				t.Fatalf("tick %d: db %d = %v, want fresh", tick, db, got[0][db])
			}
		}
		wantMissing := 0
		if dropped {
			wantMissing = 1
		}
		if rep.Missing != wantMissing || rep.Arrived != 3-wantMissing {
			t.Fatalf("tick %d: report %+v", tick, rep)
		}
	}
	h := p.s.Health()
	for db, th := range h.Targets {
		wantDrops := 0
		if db == 1 {
			wantDrops = 1
		}
		if th.StaleDrops != wantDrops || th.Successes != 4 || th.BreakerTrips != 0 {
			t.Fatalf("db %d health %+v", db, th)
		}
	}
	if h.Targets[1].LastTick != 1 || h.Targets[0].LastTick != 3 {
		t.Fatalf("last ticks %d, %d", h.Targets[0].LastTick, h.Targets[1].LastTick)
	}
	if n := p.unitReqs.Load(); n != 4 {
		t.Fatalf("%d unit requests over 4 rounds", n)
	}
}

// The exporter's fault rule on GET /kpis: a wire fault on any database
// answers for the whole response, the lowest-indexed database's first;
// stale freezes only its own database; and each unit request counts once
// against every database's Count budget and flap parity.
func TestScraperExporterUnitFaultRule(t *testing.T) {
	feed, exp, ts := newExporterServer(t, 2, 3)
	if err := feed.Publish(1, sampleFor(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	set := func(db int, f Fault) {
		t.Helper()
		if err := exp.SetFault(db, f); err != nil {
			t.Fatal(err)
		}
	}
	clearAll := func() {
		for db := 0; db < 3; db++ {
			set(db, Fault{})
		}
	}
	unit := func() (int, []Payload) {
		t.Helper()
		resp, body, err := get(t, ts.URL+"/kpis")
		if err != nil {
			t.Fatal(err)
		}
		ps, _ := ParseUnit(body, nil, FormatJSON)
		return resp.StatusCode, ps
	}

	if code, ps := unit(); code != http.StatusOK || len(ps) != 3 {
		t.Fatalf("healthy unit: %d, %d databases", code, len(ps))
	}

	set(2, Fault{Mode: Fault5xx})
	if code, _ := unit(); code != http.StatusInternalServerError {
		t.Fatalf("5xx on db 2: unit answered %d", code)
	}
	if resp, _, _ := get(t, ts.URL+"/db/0/kpis"); resp.StatusCode != http.StatusOK {
		t.Fatalf("db 0's own route answered %d", resp.StatusCode)
	}

	set(1, Fault{Mode: FaultGarbage}) // lower index than db 2's 5xx: wins
	resp, body, err := get(t, ts.URL+"/kpis")
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "not a payload") {
		t.Fatalf("garbage on db 1 beside 5xx on db 2: %v %q %v", resp.StatusCode, body, err)
	}

	set(0, Fault{Mode: FaultFormatFlip}) // lowest index: a well-formed body in the other format
	resp, body, err = get(t, ts.URL+"/kpis")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("format-flip: %v, %v", resp, err)
	}
	if ps, err := ParseUnit(body, nil, FormatProm); err != nil || len(ps) != 3 {
		t.Fatalf("format-flip served %q (%v)", body, err)
	}
	clearAll()

	set(1, Fault{Mode: Fault5xx, Count: 2})
	for i, want := range []int{500, 500, 200, 200} {
		if code, _ := unit(); code != want {
			t.Fatalf("Count 2, unit request %d answered %d, want %d", i, code, want)
		}
	}

	set(0, Fault{Mode: FaultFlap})
	for i, want := range []int{200, 500, 200, 500} {
		if code, _ := unit(); code != want {
			t.Fatalf("flap, unit request %d answered %d, want %d", i, code, want)
		}
	}
	clearAll()

	set(1, Fault{Mode: FaultStale})
	if code, ps := unit(); code != http.StatusOK || ps[1].Tick != 1 {
		t.Fatalf("stale capture: %d %+v", code, ps)
	}
	if err := feed.Publish(2, sampleFor(2, 3, 2)); err != nil {
		t.Fatal(err)
	}
	code, ps := unit()
	if code != http.StatusOK || ps[0].Tick != 2 || ps[2].Tick != 2 || ps[1].Tick != 1 ||
		ps[1].Values[0] != sampleFor(2, 3, 1)[0][1] || ps[0].Values[0] != sampleFor(2, 3, 2)[0][0] {
		t.Fatalf("stale db 1 in a unit body: %d %+v", code, ps)
	}
	clearAll()

	client := &http.Client{Timeout: 100 * time.Millisecond}
	for db, mode := range []FaultMode{FaultDrop, FaultTruncate, FaultHang} {
		set(db, Fault{Mode: mode})
		resp, err := client.Get(ts.URL + "/kpis")
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if _, perr := ParseUnit(body, nil, FormatJSON); err == nil && perr == nil {
				t.Fatalf("%v on db %d: the unit answered a whole body", mode, db)
			}
		}
		clearAll()
	}
}

// New groups databases by URL in order of first appearance: one request
// per endpoint per round, the default Concurrency the endpoint count, and
// each one-database endpoint's jitter that of its database.
func TestScraperGroupsTargetsByURL(t *testing.T) {
	const kpis = 2
	body := func(dbs ...int) []byte {
		ps := make([]Payload, len(dbs))
		for i, d := range dbs {
			ps[i] = Payload{Tick: 0, DB: d, Values: []float64{float64(d), 0.5}}
		}
		return AppendUnit(nil, ps, FormatJSON)
	}
	tr := &bodyTransport{
		bodies: map[string][]byte{"/a": body(0, 2), "/b": body(1, 3), "/c": body(4)},
		reqs:   map[string]int{},
	}
	s, err := New(Config{
		Targets:    []string{"http://h/a", "http://h/b", "http://h/a", "http://h/b", "http://h/c"},
		KPIs:       kpis,
		JitterSeed: 5,
		Client:     &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.eps) != 3 || s.cfg.Concurrency != 3 {
		t.Fatalf("%d endpoints, concurrency %d; want 3 and 3", len(s.eps), s.cfg.Concurrency)
	}
	got, rep, err := s.Round(context.Background())
	if err != nil || rep.Arrived != 5 {
		t.Fatalf("round: %+v, %v", rep, err)
	}
	for d := 0; d < 5; d++ {
		if got[0][d] != float64(d) {
			t.Fatalf("db %d column = %v", d, got[0][d])
		}
	}
	for path, n := range tr.reqs {
		if n != 1 {
			t.Fatalf("%s requested %d times, want 1", path, n)
		}
	}
	if h := s.Health(); h.Targets[2].URL != "http://h/a" || h.Targets[3].URL != "http://h/b" || h.Targets[4].Scrapes != 1 {
		t.Fatalf("health = %+v", h.Targets)
	}

	// Per-database endpoints draw their jitter exactly as each database
	// always has: the jitter root's splits in database order.
	per, err := New(Config{Targets: dbTargets("http://h", 3), KPIs: kpis, JitterSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	root := mathx.NewRNG(5).Split(0x5c4a)
	for d := range per.eps {
		if want, got := root.Split(uint64(d)).Uint64(), per.eps[d].rng.Uint64(); got != want {
			t.Fatalf("db %d jitter draw %d, want %d", d, got, want)
		}
	}
}
