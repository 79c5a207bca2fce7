package scrape

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testPipe wires feed → exporter → httptest server → scraper, with request
// counters per database route and for the unit route, so tests can assert
// how often a target was actually contacted.
type testPipe struct {
	feed     *Feed
	exp      *Exporter
	ts       *httptest.Server
	s        *Scraper
	reqs     []atomic.Int64 // GET /db/{db}/kpis, per database
	unitReqs atomic.Int64   // GET /kpis
}

// dbTargets names each database's own /db/{db}/kpis URL on the exporter at
// base, as an explicit per-database target list does: every database is
// its own endpoint.
func dbTargets(base string, dbs int) []string {
	out := make([]string, dbs)
	for d := range out {
		out[d] = fmt.Sprintf("%s/db/%d/kpis", base, d)
	}
	return out
}

// newTestPipe scrapes each database at its own URL, so tests can script
// one database's faults, format or concurrency.
func newTestPipe(t *testing.T, kpis, dbs int, mod func(*Config)) *testPipe {
	t.Helper()
	return newPipe(t, kpis, dbs, dbTargets, mod)
}

// newUnitPipe scrapes the unit as one endpoint at /kpis (SelfTargets).
func newUnitPipe(t *testing.T, kpis, dbs int, mod func(*Config)) *testPipe {
	t.Helper()
	return newPipe(t, kpis, dbs, SelfTargets, mod)
}

func newPipe(t *testing.T, kpis, dbs int, targets func(string, int) []string, mod func(*Config)) *testPipe {
	t.Helper()
	p := &testPipe{feed: NewFeed(kpis, dbs), reqs: make([]atomic.Int64, dbs)}
	p.exp = NewExporter(p.feed)
	inner := p.exp.Handler()
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/kpis" {
			p.unitReqs.Add(1)
		}
		if parts := strings.Split(r.URL.Path, "/"); len(parts) == 4 && parts[1] == "db" {
			for d := 0; d < dbs; d++ {
				if parts[2] == string(rune('0'+d)) {
					p.reqs[d].Add(1)
				}
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(p.ts.Close)
	cfg := Config{
		Targets:           targets(p.ts.URL, dbs),
		KPIs:              kpis,
		RoundTimeout:      2 * time.Second,
		TryTimeout:        500 * time.Millisecond,
		MaxAttempts:       3,
		BreakerFailures:   2,
		BreakerOpenRounds: 3,
		StaleRounds:       2,
		JitterSeed:        1,
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.s = s
	return p
}

func (p *testPipe) publish(t *testing.T, tick int, sample [][]float64) {
	t.Helper()
	if err := p.feed.Publish(tick, sample); err != nil {
		t.Fatal(err)
	}
}

func (p *testPipe) round(t *testing.T) ([][]float64, RoundReport) {
	t.Helper()
	sample, rep, err := p.s.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sample, rep
}

func sampleFor(kpis, dbs, tick int) [][]float64 {
	s := make([][]float64, kpis)
	for k := range s {
		s[k] = make([]float64, dbs)
		for d := range s[k] {
			s[k][d] = float64(tick*100+k*10+d) + 0.25
		}
	}
	return s
}

func sameCell(a, b float64) bool {
	return math.IsNaN(a) == math.IsNaN(b) && (math.IsNaN(a) || a == b)
}

func TestScraperHealthyRoundBitExact(t *testing.T) {
	p := newTestPipe(t, 3, 2, nil)
	want := [][]float64{{1.5, 2.5}, {-3e-9, 4e12}, {math.NaN(), 0.1}}
	p.publish(t, 0, want)
	got, rep := p.round(t)
	if rep.Arrived != 2 || rep.Missing != 0 || rep.Late {
		t.Fatalf("report = %+v", rep)
	}
	for k := range want {
		for d := range want[k] {
			if !sameCell(want[k][d], got[k][d]) {
				t.Fatalf("cell [%d][%d] = %v, want %v", k, d, got[k][d], want[k][d])
			}
		}
	}
	h := p.s.Health()
	if h.Rounds != 1 || h.CompleteRounds != 1 || h.Targets[0].Successes != 1 {
		t.Fatalf("health = %+v", h)
	}
}

// With no Client given, rounds reuse the connections of the rounds before.
// The pool keeps Concurrency idle connections; a request queued just before
// a connection returns to it may still race a dial of its own, so the bound
// is 2*Concurrency over 200 rounds. http.DefaultTransport's 2-per-host pool
// re-dials about 3 of the 5 targets every round instead.
func TestScraperDefaultClientReusesConnections(t *testing.T) {
	const kpis, dbs = 2, 5
	feed := NewFeed(kpis, dbs)
	ts := httptest.NewUnstartedServer(NewExporter(feed).Handler())
	var dialed atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	s, err := New(Config{Targets: dbTargets(ts.URL, dbs), KPIs: kpis})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.client.CloseIdleConnections)
	for tick := 0; tick < 200; tick++ {
		if err := feed.Publish(tick, sampleFor(kpis, dbs, tick)); err != nil {
			t.Fatal(err)
		}
		_, rep, err := s.Round(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Arrived != dbs {
			t.Fatalf("round %d: %d of %d targets arrived", tick, rep.Arrived, dbs)
		}
	}
	if n, most := dialed.Load(), int64(2*s.cfg.Concurrency); n > most {
		t.Fatalf("%d connections over 200 rounds, want at most %d", n, most)
	}
}

func TestScraperRetriesTransientFailure(t *testing.T) {
	p := newTestPipe(t, 2, 2, nil)
	p.publish(t, 0, sampleFor(2, 2, 0))
	// The first two requests to db 0 fail; the third attempt succeeds
	// inside the same round.
	if err := p.exp.SetFault(0, Fault{Mode: Fault5xx, Count: 2}); err != nil {
		t.Fatal(err)
	}
	got, rep := p.round(t)
	if rep.Arrived != 2 || rep.Missing != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if math.IsNaN(got[0][0]) {
		t.Fatal("retried target still missing")
	}
	h := p.s.Health()
	if h.Targets[0].Retries != 2 || h.Targets[0].Successes != 1 {
		t.Fatalf("target 0 health = %+v", h.Targets[0])
	}
	if h.Targets[0].ConsecutiveFailures != 0 {
		t.Fatal("in-round retry success must clear consecutive failures")
	}
}

func TestScraperGarbageIsFailure(t *testing.T) {
	p := newTestPipe(t, 2, 2, nil)
	p.publish(t, 0, sampleFor(2, 2, 0))
	p.exp.SetFault(1, Fault{Mode: FaultGarbage})
	got, rep := p.round(t)
	if rep.Arrived != 1 || rep.Missing != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if !math.IsNaN(got[0][1]) || !math.IsNaN(got[1][1]) {
		t.Fatal("garbage target column not NaN")
	}
	if h := p.s.Health(); h.Targets[1].Failures != 1 || h.Targets[1].LastError == "" {
		t.Fatalf("target 1 health = %+v", h.Targets[1])
	}
}

// The full breaker lifecycle, round by round: closed → failures → open
// (skips, no requests on the wire) → half-open probe → re-open → probe
// succeeds → closed. Request counts prove the breaker stops hammering.
func TestScraperBreakerLifecycle(t *testing.T) {
	p := newTestPipe(t, 2, 2, nil)
	p.exp.SetFault(1, Fault{Mode: Fault5xx}) // permanent until cleared

	states := make([]string, 0, 10)
	for round := 0; round < 10; round++ {
		if round == 9 {
			p.exp.SetFault(1, Fault{}) // heal before the second probe
		}
		p.publish(t, round, sampleFor(2, 2, round))
		_, rep := p.round(t)
		if rep.Arrived < 1 {
			t.Fatalf("round %d: healthy target missing too: %+v", round, rep)
		}
		states = append(states, p.s.Health().Targets[1].Breaker)
	}
	// Rounds 0-1 fail closed (trip at the end of round 1), 2-4 skipped
	// open, 5 probes and fails (re-open), 6-8 skipped, 9 probes and heals.
	want := []string{"closed", "open", "open", "open", "open", "open", "open", "open", "open", "closed"}
	for i, w := range want {
		if states[i] != w {
			t.Fatalf("breaker after round %d = %q, want %q (all: %v)", i, states[i], w, states)
		}
	}
	h := p.s.Health().Targets[1]
	if h.BreakerTrips != 2 || h.Probes != 2 || h.SkippedRounds != 6 {
		t.Fatalf("breaker stats = %+v", h)
	}
	// Wire truth: 3 attempts in each of rounds 0-1, 1 probe in rounds 5
	// and 9 — 8 requests total instead of 10 rounds × 3 attempts.
	if got := p.reqs[1].Load(); got != 8 {
		t.Fatalf("dead target received %d requests, want 8", got)
	}
	// The healthy peer is untouched by its neighbour's breaker.
	if got := p.reqs[0].Load(); got != 10 {
		t.Fatalf("healthy target received %d requests, want 10", got)
	}
}

// A hung target costs its attempts' timeouts, never the round: with both
// targets fetched at once and with one fetch at a time, where the healthy
// target waits behind the hung one.
func TestScraperHangHitsDeadlineNotForever(t *testing.T) {
	for name, conc := range map[string]int{"default": 0, "concurrency-1": 1} {
		t.Run(name, func(t *testing.T) {
			p := newTestPipe(t, 2, 2, func(c *Config) {
				c.RoundTimeout = 300 * time.Millisecond
				c.TryTimeout = 50 * time.Millisecond
				c.MaxAttempts = 2
				c.Concurrency = conc
			})
			p.publish(t, 0, sampleFor(2, 2, 0))
			p.exp.SetFault(0, Fault{Mode: FaultHang})
			start := time.Now()
			got, rep := p.round(t)
			if d := time.Since(start); d > time.Second {
				t.Fatalf("hung target stalled the round for %v", d)
			}
			if rep.Arrived != 1 || rep.Missing != 1 {
				t.Fatalf("report = %+v", rep)
			}
			if !math.IsNaN(got[0][0]) || math.IsNaN(got[0][1]) {
				t.Fatal("hang column shape wrong")
			}
			if h := p.s.Health().Targets[0]; h.Timeouts < 1 {
				t.Fatalf("timeouts not counted: %+v", h)
			}
		})
	}
}

// gateTransport serves scrapes from an exporter in memory. It holds each
// request until want requests are in flight at once, or until gateWait
// passes, and records the peak in flight and the requests per target, so
// a test can see how many fetches a round runs at once.
type gateTransport struct {
	h http.Handler

	mu       sync.Mutex
	want     int
	open     chan struct{} // closed once want requests are in flight
	inFlight int
	peak     int
	reqs     []int // per database
}

const gateWait = 2 * time.Second

// arm resets the counters and the gate for the next round.
func (g *gateTransport) arm(want int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.want, g.open, g.inFlight, g.peak = want, make(chan struct{}), 0, 0
	clear(g.reqs)
}

func (g *gateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rest, _ := strings.CutPrefix(req.URL.Path, "/db/")
	db, err := strconv.Atoi(strings.TrimSuffix(rest, "/kpis"))
	if err != nil || db < 0 || db >= len(g.reqs) {
		return nil, errors.New("gate: no target at " + req.URL.Path)
	}
	g.mu.Lock()
	g.reqs[db]++
	g.inFlight++
	if g.inFlight > g.peak {
		g.peak = g.inFlight
		if g.peak == g.want {
			close(g.open)
		}
	}
	open := g.open
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.inFlight--
		g.mu.Unlock()
	}()
	timer := time.NewTimer(gateWait)
	defer timer.Stop()
	select {
	case <-open:
	case <-timer.C:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// The round's concurrency contract over 5 targets: a round has exactly
// min(Concurrency, contacted targets) fetches in flight at its peak, asks
// each contacted target once when all are healthy, and never asks a target
// whose breaker is open.
func TestScraperRoundConcurrencyContract(t *testing.T) {
	const kpis, dbs = 2, 5
	for _, tc := range []struct {
		name string
		conc int
	}{
		{"concurrency-1", 1},
		{"concurrency-2", 2},
		{"concurrency-5", 5},
		{"default", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feed := NewFeed(kpis, dbs)
			exp := NewExporter(feed)
			g := &gateTransport{h: exp.Handler(), reqs: make([]int, dbs)}
			s, err := New(Config{
				Targets:           dbTargets("http://gate", dbs),
				KPIs:              kpis,
				Concurrency:       tc.conc,
				RoundTimeout:      4 * gateWait,
				TryTimeout:        2 * gateWait,
				MaxAttempts:       1,
				BreakerFailures:   1,
				BreakerOpenRounds: 5,
				Client:            &http.Client{Transport: g},
			})
			if err != nil {
				t.Fatal(err)
			}
			conc := tc.conc
			if conc == 0 {
				conc = dbs
			}
			round := func(tick, contacted int) RoundReport {
				t.Helper()
				if err := feed.Publish(tick, sampleFor(kpis, dbs, tick)); err != nil {
					t.Fatal(err)
				}
				g.arm(min(conc, contacted))
				_, rep, err := s.Round(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if want := min(conc, contacted); g.peak != want {
					t.Fatalf("round %d: %d fetches in flight at the peak, want %d", tick, g.peak, want)
				}
				return rep
			}

			if rep := round(0, dbs); rep.Arrived != dbs {
				t.Fatalf("healthy round: %+v", rep)
			}
			for db, n := range g.reqs {
				if n != 1 {
					t.Fatalf("healthy round: db %d requested %d times, want 1 (all: %v)", db, n, g.reqs)
				}
			}
			// One failed round opens db 4's breaker; the next round skips it.
			if err := exp.SetFault(4, Fault{Mode: Fault5xx}); err != nil {
				t.Fatal(err)
			}
			if rep := round(1, dbs); rep.Arrived != dbs-1 {
				t.Fatalf("failing round: %+v", rep)
			}
			if rep := round(2, dbs-1); rep.Skipped != 1 || rep.Arrived != dbs-1 {
				t.Fatalf("breaker-open round: %+v", rep)
			}
			if g.reqs[4] != 0 {
				t.Fatalf("breaker-open target requested %d times", g.reqs[4])
			}
			for db, n := range g.reqs[:4] {
				if n != 1 {
					t.Fatalf("breaker-open round: db %d requested %d times, want 1", db, n)
				}
			}
		})
	}
}

func TestScraperStaleTargetMarkedDown(t *testing.T) {
	p := newTestPipe(t, 2, 2, nil)
	p.publish(t, 0, sampleFor(2, 2, 0))
	p.round(t) // round 0: fresh, lastTick 0
	p.exp.SetFault(0, Fault{Mode: FaultStale})
	p.publish(t, 1, sampleFor(2, 2, 1))
	p.round(t) // round 1: captures tick 1, still fresh
	p.publish(t, 2, sampleFor(2, 2, 2))
	got, _ := p.round(t) // round 2: frozen at tick 1, tolerated once
	if math.IsNaN(got[0][0]) {
		t.Fatal("first stale round should still deliver (re-served values)")
	}
	if got[0][0] != sampleFor(2, 2, 1)[0][0] {
		t.Fatalf("stale round served %v, want tick-1 value", got[0][0])
	}
	p.publish(t, 3, sampleFor(2, 2, 3))
	got, rep := p.round(t) // round 3: stale beyond budget → marked down
	if !math.IsNaN(got[0][0]) || rep.Missing != 1 {
		t.Fatalf("stale target not marked down: %v %+v", got[0][0], rep)
	}
	h := p.s.Health().Targets[0]
	if h.StaleDrops != 1 || h.BreakerTrips != 0 {
		t.Fatalf("stale accounting = %+v (breaker must not trip on staleness)", h)
	}
	// Recovery: the tick advances again and the target comes back.
	p.exp.SetFault(0, Fault{})
	p.publish(t, 4, sampleFor(2, 2, 4))
	got, rep = p.round(t)
	if math.IsNaN(got[0][0]) || rep.Missing != 0 {
		t.Fatalf("recovered stale target still down: %+v", rep)
	}
}

func TestAssemblerShapesAndZeroAlloc(t *testing.T) {
	asm := NewAssembler(3, 2)
	vecs := [][]float64{{1, 2, 3}, nil}
	got, err := asm.Assemble(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 1 || got[2][0] != 3 || !math.IsNaN(got[0][1]) || !math.IsNaN(got[2][1]) {
		t.Fatalf("assembled = %v", got)
	}
	if _, err := asm.Assemble([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("wrong target count accepted")
	}
	if _, err := asm.Assemble([][]float64{{1}, {2}}); err == nil {
		t.Fatal("short vector accepted")
	}
	// The warm assembly path is allocation-free (the scrape analogue of
	// the zero-alloc KCD contract; asserted in BENCH_core.json too).
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := asm.Assemble(vecs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Assemble allocates %v per op, want 0", allocs)
	}
}

func TestScraperConfigValidation(t *testing.T) {
	if _, err := New(Config{KPIs: 3}); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := New(Config{Targets: []string{"http://x"}}); err == nil {
		t.Fatal("zero KPIs accepted")
	}
	if got := SelfTargets("http://h:1", 2); got[0] != "http://h:1/kpis" || got[1] != "http://h:1/kpis" {
		t.Fatalf("SelfTargets = %v", got)
	}
}
