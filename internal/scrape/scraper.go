package scrape

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbcatcher/internal/mathx"
)

// BreakerState is an endpoint's circuit-breaker position.
type BreakerState int

const (
	// BreakerClosed: the endpoint is scraped normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: recent rounds all failed; the endpoint is skipped (its
	// databases' columns read NaN) instead of being hammered with doomed
	// requests.
	BreakerOpen
	// BreakerHalfOpen: the open interval elapsed; this round sends a
	// single no-retry probe. Success closes the breaker, failure re-opens.
	BreakerHalfOpen
)

// String names the state as surfaced in /api/status.
func (b BreakerState) String() string {
	switch b {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(b))
}

// Config tunes the scraper. Zero fields take the documented defaults.
type Config struct {
	// Targets maps database index to its scrape URL (see SelfTargets).
	// Databases that name the same URL form one endpoint: one request per
	// attempt fetches all of them in one body, which must carry exactly
	// those databases in index order.
	Targets []string
	// KPIs is the expected vector length; shorter or longer payloads are
	// rejected as garbage.
	KPIs int

	// Format selects the wire exposition every target is scraped in
	// (default FormatJSON). The scraper negotiates it via the Accept
	// header and parses the response with the matching strict parser.
	Format Format

	// RoundTimeout is the collection deadline per tick: whatever has not
	// arrived when it expires is assembled as NaN gaps. Default 2s.
	RoundTimeout time.Duration
	// TryTimeout bounds one HTTP attempt. Default RoundTimeout/4.
	TryTimeout time.Duration
	// MaxAttempts bounds attempts per endpoint per round (first try plus
	// retries). Default 3.
	MaxAttempts int
	// JitterSeed makes the backoff jitter deterministic for tests.
	JitterSeed uint64
	// Concurrency bounds the endpoints fetched at once (default: every
	// endpoint, capped at 16). A round runs them on the goroutine that
	// calls Round plus at most Concurrency-1 goroutines it starts and
	// joins.
	Concurrency int

	// BreakerFailures is the consecutive failed rounds after which an
	// endpoint's breaker opens. Default 3.
	BreakerFailures int
	// BreakerOpenRounds is how many rounds an open breaker skips before
	// sending its half-open probe. Default 5.
	BreakerOpenRounds int
	// StaleRounds is the consecutive rounds a database may re-serve the
	// same tick before it is considered down and its column marked NaN
	// (feeding the monitor's auto-deactivation budget). Default 3.
	StaleRounds int

	// Client overrides the HTTP client (tests inject transports). The
	// default client keeps Concurrency idle connections per host, so each
	// round reuses the connections of the round before.
	Client *http.Client
}

// withDefaults fills the zero fields for a scraper of the given endpoint
// count.
func (c Config) withDefaults(endpoints int) Config {
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 2 * time.Second
	}
	if c.TryTimeout <= 0 {
		c.TryTimeout = c.RoundTimeout / 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Concurrency <= 0 {
		c.Concurrency = min(endpoints, 16)
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerOpenRounds <= 0 {
		c.BreakerOpenRounds = 5
	}
	if c.StaleRounds <= 0 {
		c.StaleRounds = 3
	}
	return c
}

// SelfTargets builds the target list for an exporter serving a dbs-wide
// unit at base (e.g. "http://127.0.0.1:9101"): its /kpis URL for every
// database, so the unit is one endpoint, fetched in one request.
func SelfTargets(base string, dbs int) []string {
	out := make([]string, dbs)
	url := base + "/kpis"
	for d := range out {
		out[d] = url
	}
	return out
}

// maxBodySize caps a scrape response; anything larger is garbage.
const maxBodySize = 1 << 20

// action is an endpoint's role in one round, decided by its breaker.
type action int

const (
	actScrape action = iota // closed: full attempt budget
	actProbe                // half-open: one attempt, no retries
	actSkip                 // open: no request at all
)

// endpoint is one scrape URL and the databases it serves: its breaker
// position, cumulative stats and per-round scratch. Long-lived fields are
// guarded by the scraper mutex; scratch fields are owned by the round
// worker that claimed the endpoint.
type endpoint struct {
	url string
	dbs []int // member databases, ascending

	state       BreakerState
	consecFails int
	openUntil   int // first round index allowed to probe

	scrapes, successes, failures int
	retries, timeouts            int
	trips, probes, skips         int
	lastErr                      string

	// act is this round's role, set before the workers start.
	act action

	// Round scratch (worker-owned while a round is in flight). req is the
	// endpoint's GET, built on its first fetch and never mutated: each
	// attempt sends a copy carrying the attempt's context. payloads[i] is
	// member dbs[i]'s payload from the last successful fetch; its Values
	// are that database's vector until the next round.
	rng      *mathx.RNG
	req      *http.Request
	body     []byte
	payloads []Payload
	res      fetchResult
}

// dbState is one database's staleness tracking: it follows the database's
// own tick in its endpoint's body.
type dbState struct {
	lastTick    int
	staleStreak int
	staleDrops  int
}

// fetchResult carries one round's outcome from the worker that fetched the
// endpoint back to the apply phase.
type fetchResult struct {
	ok       bool
	retries  int
	timeouts int
	err      string
}

// RoundReport summarizes one collection round, counting databases.
type RoundReport struct {
	// Round is the zero-based round index.
	Round int
	// Arrived counts databases that delivered a usable fresh-enough vector.
	Arrived int
	// Missing counts NaN columns (failures, breaker skips, stale drops).
	Missing int
	// Skipped counts databases whose endpoint's breaker was open, so it was
	// not contacted at all.
	Skipped int
	// Late reports that the round deadline expired before every endpoint
	// resolved.
	Late bool
}

// TargetHealth is one database's externally visible scrape state. The URL,
// breaker and counter fields are its endpoint's (the counters count the
// endpoint's scrapes); StaleDrops and LastTick are the database's own.
type TargetHealth struct {
	URL                 string `json:"url"`
	DB                  int    `json:"db"`
	Format              string `json:"format"`
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	Scrapes             int    `json:"scrapes"`
	Successes           int    `json:"successes"`
	Failures            int    `json:"failures"`
	Retries             int    `json:"retries"`
	Timeouts            int    `json:"timeouts"`
	BreakerTrips        int    `json:"breakerTrips"`
	Probes              int    `json:"probes"`
	SkippedRounds       int    `json:"skippedRounds"`
	StaleDrops          int    `json:"staleDrops"`
	LastTick            int    `json:"lastTick"`
	LastError           string `json:"lastError,omitempty"`
}

// Health is the scraper's externally visible state, embedded as the
// "scrape" block of /api/status.
type Health struct {
	Rounds         int            `json:"rounds"`
	CompleteRounds int            `json:"completeRounds"`
	PartialRounds  int            `json:"partialRounds"`
	LateRounds     int            `json:"lateRounds"`
	Targets        []TargetHealth `json:"targets"`
}

// Scraper is the per-round, deadline-driven KPI collection fan-out. One
// goroutine calls Round per tick; Health may be called concurrently from
// serving handlers. A round fetches on min(Concurrency, contacted
// endpoints) workers: the calling goroutine is the first and starts and
// joins the rest, and each worker claims the next endpoint in order.
type Scraper struct {
	cfg    Config
	client *http.Client

	mu      sync.Mutex
	eps     []endpoint
	dbs     []dbState
	rounds  int
	late    int
	partial int
	full    int

	asm  *Assembler
	vecs [][]float64
}

// New validates the config, groups the databases into endpoints by URL in
// order of first appearance, and builds a scraper.
func New(cfg Config) (*Scraper, error) {
	n := len(cfg.Targets)
	if n == 0 {
		return nil, fmt.Errorf("scrape: no targets")
	}
	if cfg.KPIs <= 0 {
		return nil, fmt.Errorf("scrape: non-positive KPI count %d", cfg.KPIs)
	}
	if cfg.Format < FormatJSON || cfg.Format > FormatProm {
		return nil, fmt.Errorf("scrape: invalid format %d", int(cfg.Format))
	}

	// Number the endpoints by first appearance, then lay the members out
	// endpoint by endpoint, each endpoint's ascending.
	index := make(map[string]int)
	epOf := make([]int, n)
	for d, url := range cfg.Targets {
		i, ok := index[url]
		if !ok {
			i = len(index)
			index[url] = i
		}
		epOf[d] = i
	}
	order := make([]int, n)
	for d := range order {
		order[d] = d
	}
	slices.SortStableFunc(order, func(a, b int) int { return epOf[a] - epOf[b] })

	cfg = cfg.withDefaults(len(index))
	s := &Scraper{cfg: cfg, client: cfg.Client}
	if s.client == nil {
		// http.DefaultTransport keeps 2 idle connections per host, so a
		// round over more endpoints than that would re-dial the rest.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = cfg.Concurrency
		s.client = &http.Client{Transport: tr}
	}
	root := mathx.NewRNG(cfg.JitterSeed).Split(0x5c4a)
	s.eps = make([]endpoint, len(index))
	payloads := make([]Payload, n)
	cells := make([]float64, n*cfg.KPIs)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && epOf[order[hi]] == epOf[order[lo]] {
			hi++
		}
		ep := &s.eps[epOf[order[lo]]]
		ep.dbs = order[lo:hi:hi]
		ep.url = cfg.Targets[ep.dbs[0]]
		// Jitter from the first member's split keeps a one-database
		// endpoint's backoff sequence that of its database.
		ep.rng = root.Split(uint64(ep.dbs[0]))
		ep.payloads = payloads[lo:lo:hi]
		for i := lo; i < hi; i++ {
			payloads[i].Values = cells[i*cfg.KPIs : i*cfg.KPIs : (i+1)*cfg.KPIs]
		}
		lo = hi
	}
	s.dbs = make([]dbState, n)
	for d := range s.dbs {
		s.dbs[d].lastTick = -1
	}
	s.asm = NewAssembler(cfg.KPIs, n)
	s.vecs = make([][]float64, n)
	return s, nil
}

// Targets returns the configured target count (the unit's database count).
func (s *Scraper) Targets() int { return len(s.dbs) }

// Round runs one collection round: fan out over every endpoint under the
// round deadline, retry transient failures with backoff, honor the
// per-endpoint breakers, and assemble whatever arrived into the monitor's
// sample[kpi][db] layout (missing databases as NaN columns). The returned
// sample aliases reusable storage; ingest it before the next Round.
//
// Round never fails on collection problems — they degrade the sample. The
// error is non-nil only for context cancellation of the parent ctx.
func (s *Scraper) Round(ctx context.Context) ([][]float64, RoundReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, RoundReport{}, err
	}
	s.mu.Lock()
	round := s.rounds
	contacted := 0
	for i := range s.eps {
		ep := &s.eps[i]
		switch ep.state {
		case BreakerOpen:
			if round >= ep.openUntil {
				ep.state = BreakerHalfOpen
				ep.act = actProbe
			} else {
				ep.act = actSkip
			}
		case BreakerHalfOpen:
			ep.act = actProbe
		default:
			ep.act = actScrape
		}
		if ep.act != actSkip {
			contacted++
		}
	}
	s.mu.Unlock()

	rctx, cancel := context.WithTimeout(ctx, s.cfg.RoundTimeout)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w < min(s.cfg.Concurrency, contacted); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(rctx, &next)
		}()
	}
	s.work(rctx, &next)
	wg.Wait()
	late := rctx.Err() != nil

	rep := RoundReport{Round: round, Late: late}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.eps {
		s.applyResult(&s.eps[i], round, &rep)
	}
	s.rounds++
	if late {
		s.late++
	}
	if rep.Missing == 0 {
		s.full++
	} else {
		s.partial++
	}
	sample, err := s.asm.Assemble(s.vecs)
	if err != nil {
		return nil, rep, err
	}
	return sample, rep, nil
}

// applyResult folds one endpoint's round outcome into its breaker and stats
// and its databases' staleness (caller holds the scraper mutex), setting
// each member's vector to assemble (nil = NaN column) and counting them
// into rep.
func (s *Scraper) applyResult(ep *endpoint, round int, rep *RoundReport) {
	if ep.act == actSkip {
		ep.skips++
		s.drop(ep, rep)
		rep.Skipped += len(ep.dbs)
		return
	}
	r := &ep.res
	ep.scrapes++
	ep.retries += r.retries
	ep.timeouts += r.timeouts
	probe := ep.act == actProbe
	if probe {
		ep.probes++
	}
	if !r.ok {
		ep.failures++
		ep.consecFails++
		ep.lastErr = r.err
		if probe || (ep.state == BreakerClosed && ep.consecFails >= s.cfg.BreakerFailures) {
			if ep.state != BreakerOpen {
				ep.trips++
			}
			ep.state = BreakerOpen
			ep.openUntil = round + 1 + s.cfg.BreakerOpenRounds
		}
		s.drop(ep, rep)
		return
	}
	ep.successes++
	ep.consecFails = 0
	ep.lastErr = ""
	ep.state = BreakerClosed
	for i, d := range ep.dbs {
		p, db := &ep.payloads[i], &s.dbs[d]
		s.vecs[d] = p.Values
		if p.Tick == db.lastTick {
			// The database answers but its clock is frozen. Re-served
			// values are tolerated briefly (a slow publisher), then it is
			// treated as down so the gap budget can bench it.
			db.staleStreak++
			if db.staleStreak >= s.cfg.StaleRounds {
				db.staleDrops++
				s.vecs[d] = nil
			}
		} else {
			db.lastTick = p.Tick
			db.staleStreak = 0
		}
		if s.vecs[d] == nil {
			rep.Missing++
		} else {
			rep.Arrived++
		}
	}
}

// drop marks every member of ep missing this round.
func (s *Scraper) drop(ep *endpoint, rep *RoundReport) {
	for _, d := range ep.dbs {
		s.vecs[d] = nil
	}
	rep.Missing += len(ep.dbs)
}

// work is one round worker: it claims endpoint indexes from next in order
// until none is left and runs each contacted endpoint's attempts into its
// result, a half-open probe getting a single attempt. An endpoint that no
// worker claims before the round deadline still gets its first attempt,
// which fails at once on the expired context and counts a timeout.
func (s *Scraper) work(ctx context.Context, next *atomic.Int64) {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(s.eps) {
			return
		}
		ep := &s.eps[i]
		attempts := s.cfg.MaxAttempts
		switch ep.act {
		case actSkip:
			continue
		case actProbe:
			attempts = 1
		}
		ep.res = s.scrapeEndpoint(ctx, ep, attempts)
	}
}

// scrapeEndpoint runs one endpoint's attempt loop for a round. It touches
// only the endpoint's round scratch.
func (s *Scraper) scrapeEndpoint(ctx context.Context, ep *endpoint, attempts int) fetchResult {
	var res fetchResult
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if !s.backoff(ctx, ep, attempt) {
				return res // round deadline consumed the retry budget
			}
			res.retries++
		}
		err := s.fetch(ctx, ep)
		if err == nil {
			res.ok = true
			res.err = ""
			return res
		}
		if isTimeout(err) {
			res.timeouts++
		}
		res.err = err.Error()
		if ctx.Err() != nil {
			return res
		}
	}
	return res
}

// backoffBase and backoffMax shape the exponential retry backoff: each
// retry sleeps a jittered duration in [d/2, d) where d doubles from
// backoffBase up to backoffMax.
const (
	backoffBase = 10 * time.Millisecond
	backoffMax  = 250 * time.Millisecond
)

// backoff sleeps the jittered exponential delay for the given retry
// attempt; false means the round deadline expired first.
func (s *Scraper) backoff(ctx context.Context, ep *endpoint, attempt int) bool {
	d := backoffBase << (attempt - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	half := d / 2
	d = half + time.Duration(ep.rng.Float64()*float64(half))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// fetch performs one HTTP attempt and decodes the body into ep.payloads,
// which must then carry exactly the endpoint's databases, in index order,
// each with KPIs values.
func (s *Scraper) fetch(ctx context.Context, ep *endpoint) error {
	if ep.req == nil {
		req, err := http.NewRequest(http.MethodGet, ep.url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", s.cfg.Format.accept())
		ep.req = req
	}
	tctx, cancel := context.WithTimeout(ctx, s.cfg.TryTimeout)
	defer cancel()
	resp, err := s.client.Do(ep.req.WithContext(tctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodySize))
		return fmt.Errorf("scrape: %s returned status %d", ep.url, resp.StatusCode)
	}
	ep.body, err = appendReadAll(ep.body[:0], io.LimitReader(resp.Body, maxBodySize))
	if err != nil {
		return fmt.Errorf("scrape: reading %s: %w", ep.url, err)
	}
	if ep.payloads, err = ParseUnit(ep.body, ep.payloads, s.cfg.Format); err != nil {
		return err
	}
	if len(ep.payloads) != len(ep.dbs) {
		return fmt.Errorf("scrape: %s served %d databases, want %d", ep.url, len(ep.payloads), len(ep.dbs))
	}
	for i, d := range ep.dbs {
		p := &ep.payloads[i]
		if p.DB != d {
			return fmt.Errorf("scrape: %s identifies as db %d, want %d", ep.url, p.DB, d)
		}
		if len(p.Values) != s.cfg.KPIs {
			return fmt.Errorf("scrape: %s served %d KPIs, want %d", ep.url, len(p.Values), s.cfg.KPIs)
		}
	}
	return nil
}

// Health snapshots the scraper's state for /api/status: one entry per
// database, in database order.
func (s *Scraper) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Rounds:         s.rounds,
		CompleteRounds: s.full,
		PartialRounds:  s.partial,
		LateRounds:     s.late,
		Targets:        make([]TargetHealth, len(s.dbs)),
	}
	for i := range s.eps {
		ep := &s.eps[i]
		for _, d := range ep.dbs {
			h.Targets[d] = TargetHealth{
				URL:                 ep.url,
				DB:                  d,
				Format:              s.cfg.Format.String(),
				Breaker:             ep.state.String(),
				ConsecutiveFailures: ep.consecFails,
				Scrapes:             ep.scrapes,
				Successes:           ep.successes,
				Failures:            ep.failures,
				Retries:             ep.retries,
				Timeouts:            ep.timeouts,
				BreakerTrips:        ep.trips,
				Probes:              ep.probes,
				SkippedRounds:       ep.skips,
				StaleDrops:          s.dbs[d].staleDrops,
				LastTick:            s.dbs[d].lastTick,
				LastError:           ep.lastErr,
			}
		}
	}
	return h
}

// isTimeout classifies an attempt error as deadline-driven.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne interface{ Timeout() bool }
	return errors.As(err, &ne) && ne.Timeout()
}

// appendReadAll reads r to EOF into b's spare capacity, growing as needed —
// io.ReadAll without the fresh allocation per call.
func appendReadAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
