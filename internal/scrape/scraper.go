package scrape

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dbcatcher/internal/mathx"
)

// BreakerState is a target's circuit-breaker position.
type BreakerState int

const (
	// BreakerClosed: the target is scraped normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: recent rounds all failed; the target is skipped (its
	// column reads NaN) instead of being hammered with doomed requests.
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
	Targets []string
	// KPIs is the expected vector length; shorter or longer payloads are
	// rejected as garbage.
	KPIs int

	// Format selects the wire exposition every target is scraped in
	// (default FormatJSON). The scraper negotiates it via the Accept
	// header and parses the response with the matching strict parser.
	Format Format
	// Formats optionally overrides the format per target; when non-nil it
	// must name one format per Targets entry.
	Formats []Format

	// RoundTimeout is the collection deadline per tick: whatever has not
	// arrived when it expires is assembled as NaN gaps. Default 2s.
	RoundTimeout time.Duration
	// TryTimeout bounds one HTTP attempt. Default RoundTimeout/4.
	TryTimeout time.Duration
	// MaxAttempts bounds attempts per target per round (first try plus
	// retries). Default 3.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential retry backoff;
	// each retry sleeps a jittered duration in [d/2, d) where d doubles
	// from BackoffBase up to BackoffMax. Defaults 10ms and 250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed makes the backoff jitter deterministic for tests.
	JitterSeed uint64
	// Concurrency bounds the fetches in flight (default: all targets at
	// once, capped at 16). A round runs them on the goroutine that calls
	// Round plus at most Concurrency-1 goroutines it starts and joins.
	Concurrency int

	// BreakerFailures is the consecutive failed rounds after which a
	// target's breaker opens. Default 3.
	BreakerFailures int
	// BreakerOpenRounds is how many rounds an open breaker skips before
	// sending its half-open probe. Default 5.
	BreakerOpenRounds int
	// StaleRounds is the consecutive rounds a target may re-serve the same
	// tick before it is considered down and its column marked NaN (feeding
	// the monitor's auto-deactivation budget). Default 3.
	StaleRounds int

	// Client overrides the HTTP client (tests inject transports). The
	// default client keeps Concurrency idle connections per host, so each
	// round reuses the connections of the round before.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 2 * time.Second
	}
	if c.TryTimeout <= 0 {
		c.TryTimeout = c.RoundTimeout / 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.Concurrency <= 0 {
		c.Concurrency = len(c.Targets)
		if c.Concurrency > 16 {
			c.Concurrency = 16
		}
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
// unit at base (e.g. "http://127.0.0.1:9101").
func SelfTargets(base string, dbs int) []string {
	out := make([]string, dbs)
	for d := range out {
		out[d] = fmt.Sprintf("%s/db/%d/kpis", base, d)
	}
	return out
}

// maxBodySize caps a scrape response; anything larger is garbage.
const maxBodySize = 1 << 20

// action is a target's role in one round, decided by the breaker.
type action int

const (
	actScrape action = iota // closed: full attempt budget
	actProbe                // half-open: one attempt, no retries
	actSkip                 // open: no request at all
)

// targetState is one scrape target's breaker position, staleness tracking,
// cumulative stats, and per-round scratch. Long-lived fields are guarded by
// the scraper mutex; scratch fields are owned by the round worker that
// claimed the target.
type targetState struct {
	url    string
	db     int
	format Format

	state       BreakerState
	consecFails int
	openUntil   int // first round index allowed to probe
	lastTick    int
	staleStreak int

	scrapes, successes, failures int
	retries, timeouts            int
	trips, probes, skips         int
	staleDrops                   int
	lastErr                      string

	// Round scratch (worker-owned while a round is in flight). req is the
	// target's GET, built on its first fetch and never mutated: each
	// attempt sends a copy carrying the attempt's context.
	rng     *mathx.RNG
	req     *http.Request
	payload Payload
	body    []byte
	vec     []float64
	res     fetchResult
}

// fetchResult carries one round's outcome from the worker that fetched the
// target back to the apply phase.
type fetchResult struct {
	ok       bool
	tick     int
	retries  int
	timeouts int
	err      string
}

// RoundReport summarizes one collection round.
type RoundReport struct {
	// Round is the zero-based round index.
	Round int
	// Arrived counts targets that delivered a usable fresh-enough vector.
	Arrived int
	// Missing counts NaN columns (failures, breaker skips, stale drops).
	Missing int
	// Skipped counts breaker-open targets that were not contacted at all.
	Skipped int
	// Late reports that the round deadline expired before every target
	// resolved.
	Late bool
}

// TargetHealth is one target's externally visible scrape state.
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
// serving handlers. A round fetches on min(Concurrency, contacted targets)
// workers: the calling goroutine is the first and starts and joins the
// rest, and each worker claims the next target in index order.
type Scraper struct {
	cfg    Config
	client *http.Client

	mu      sync.Mutex
	targets []*targetState
	rounds  int
	late    int
	partial int
	full    int

	asm  *Assembler
	vecs [][]float64
	acts []action
}

// New validates the config and builds a scraper.
func New(cfg Config) (*Scraper, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("scrape: no targets")
	}
	if cfg.KPIs <= 0 {
		return nil, fmt.Errorf("scrape: non-positive KPI count %d", cfg.KPIs)
	}
	if cfg.Format < FormatJSON || cfg.Format > FormatProm {
		return nil, fmt.Errorf("scrape: invalid format %d", int(cfg.Format))
	}
	if cfg.Formats != nil && len(cfg.Formats) != len(cfg.Targets) {
		return nil, fmt.Errorf("scrape: %d per-target formats for %d targets",
			len(cfg.Formats), len(cfg.Targets))
	}
	for _, f := range cfg.Formats {
		if f < FormatJSON || f > FormatProm {
			return nil, fmt.Errorf("scrape: invalid format %d", int(f))
		}
	}
	cfg = cfg.withDefaults()
	s := &Scraper{cfg: cfg, client: cfg.Client}
	if s.client == nil {
		// http.DefaultTransport keeps 2 idle connections per host, so a
		// round over more targets than that would re-dial the rest.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = cfg.Concurrency
		s.client = &http.Client{Transport: tr}
	}
	root := mathx.NewRNG(cfg.JitterSeed).Split(0x5c4a)
	s.targets = make([]*targetState, len(cfg.Targets))
	for d, url := range cfg.Targets {
		format := cfg.Format
		if cfg.Formats != nil {
			format = cfg.Formats[d]
		}
		s.targets[d] = &targetState{
			url:      url,
			db:       d,
			format:   format,
			lastTick: -1,
			rng:      root.Split(uint64(d)),
			vec:      make([]float64, cfg.KPIs),
		}
	}
	s.asm = NewAssembler(cfg.KPIs, len(cfg.Targets))
	s.vecs = make([][]float64, len(cfg.Targets))
	s.acts = make([]action, len(cfg.Targets))
	return s, nil
}

// Targets returns the configured target count (the unit's database count).
func (s *Scraper) Targets() int { return len(s.targets) }

// Round runs one collection round: fan out over every target under the
// round deadline, retry transient failures with backoff, honor the
// per-target breakers, and assemble whatever arrived into the monitor's
// sample[kpi][db] layout (missing targets as NaN columns). The returned
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
	for i, t := range s.targets {
		switch t.state {
		case BreakerOpen:
			if round >= t.openUntil {
				t.state = BreakerHalfOpen
				s.acts[i] = actProbe
			} else {
				s.acts[i] = actSkip
			}
		case BreakerHalfOpen:
			s.acts[i] = actProbe
		default:
			s.acts[i] = actScrape
		}
		if s.acts[i] != actSkip {
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
	for i, t := range s.targets {
		if s.acts[i] == actSkip {
			t.skips++
			s.vecs[i] = nil
			rep.Skipped++
			rep.Missing++
			continue
		}
		s.vecs[i] = s.applyResult(t, round, s.acts[i] == actProbe)
		if s.vecs[i] == nil {
			rep.Missing++
		} else {
			rep.Arrived++
		}
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

// applyResult folds one target's round outcome into its breaker, staleness,
// and stats (caller holds the scraper mutex), returning the vector to
// assemble (nil = NaN column).
func (s *Scraper) applyResult(t *targetState, round int, probe bool) []float64 {
	r := &t.res
	t.scrapes++
	t.retries += r.retries
	t.timeouts += r.timeouts
	if probe {
		t.probes++
	}
	if !r.ok {
		t.failures++
		t.consecFails++
		t.lastErr = r.err
		if probe || (t.state == BreakerClosed && t.consecFails >= s.cfg.BreakerFailures) {
			if t.state != BreakerOpen {
				t.trips++
			}
			t.state = BreakerOpen
			t.openUntil = round + 1 + s.cfg.BreakerOpenRounds
		}
		return nil
	}
	t.successes++
	t.consecFails = 0
	t.lastErr = ""
	t.state = BreakerClosed
	if r.tick == t.lastTick {
		// The target answers but its clock is frozen. Re-served values are
		// tolerated briefly (a slow publisher), then the target is treated
		// as down so the gap budget can bench its database.
		t.staleStreak++
		if t.staleStreak >= s.cfg.StaleRounds {
			t.staleDrops++
			return nil
		}
	} else {
		t.lastTick = r.tick
		t.staleStreak = 0
	}
	return t.vec
}

// work is one round worker: it claims target indexes from next in order
// until none is left and runs each contacted target's attempts into its
// result, a half-open probe getting a single attempt. A target that no
// worker claims before the round deadline still gets its first attempt,
// which fails at once on the expired context and counts a timeout.
func (s *Scraper) work(ctx context.Context, next *atomic.Int64) {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(s.targets) {
			return
		}
		attempts := s.cfg.MaxAttempts
		switch s.acts[i] {
		case actSkip:
			continue
		case actProbe:
			attempts = 1
		}
		t := s.targets[i]
		t.res = s.scrapeTarget(ctx, t, attempts)
	}
}

// scrapeTarget runs one target's attempt loop for a round. It touches only
// the target's round scratch.
func (s *Scraper) scrapeTarget(ctx context.Context, t *targetState, attempts int) fetchResult {
	var res fetchResult
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if !s.backoff(ctx, t, attempt) {
				return res // round deadline consumed the retry budget
			}
			res.retries++
		}
		err := s.fetch(ctx, t)
		if err == nil {
			res.ok = true
			res.tick = t.payload.Tick
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

// backoff sleeps the jittered exponential delay for the given retry
// attempt; false means the round deadline expired first.
func (s *Scraper) backoff(ctx context.Context, t *targetState, attempt int) bool {
	d := s.cfg.BackoffBase << (attempt - 1)
	if d > s.cfg.BackoffMax || d <= 0 {
		d = s.cfg.BackoffMax
	}
	half := d / 2
	d = half + time.Duration(t.rng.Float64()*float64(half))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// fetch performs one HTTP attempt and decodes the payload into t.payload /
// t.vec.
func (s *Scraper) fetch(ctx context.Context, t *targetState) error {
	if t.req == nil {
		req, err := http.NewRequest(http.MethodGet, t.url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", t.format.accept())
		t.req = req
	}
	tctx, cancel := context.WithTimeout(ctx, s.cfg.TryTimeout)
	defer cancel()
	resp, err := s.client.Do(t.req.WithContext(tctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodySize))
		return fmt.Errorf("scrape: %s returned status %d", t.url, resp.StatusCode)
	}
	t.body, err = appendReadAll(t.body[:0], io.LimitReader(resp.Body, maxBodySize))
	if err != nil {
		return fmt.Errorf("scrape: reading %s: %w", t.url, err)
	}
	if err = ParseBody(t.body, &t.payload, t.format); err != nil {
		return err
	}
	if t.payload.DB != t.db {
		return fmt.Errorf("scrape: %s identifies as db %d, want %d", t.url, t.payload.DB, t.db)
	}
	if len(t.payload.Values) != s.cfg.KPIs {
		return fmt.Errorf("scrape: %s served %d KPIs, want %d", t.url, len(t.payload.Values), s.cfg.KPIs)
	}
	copy(t.vec, t.payload.Values)
	return nil
}

// Health snapshots the scraper's state for /api/status.
func (s *Scraper) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Rounds:         s.rounds,
		CompleteRounds: s.full,
		PartialRounds:  s.partial,
		LateRounds:     s.late,
		Targets:        make([]TargetHealth, len(s.targets)),
	}
	for i, t := range s.targets {
		h.Targets[i] = TargetHealth{
			URL:                 t.url,
			DB:                  t.db,
			Format:              t.format.String(),
			Breaker:             t.state.String(),
			ConsecutiveFailures: t.consecFails,
			Scrapes:             t.scrapes,
			Successes:           t.successes,
			Failures:            t.failures,
			Retries:             t.retries,
			Timeouts:            t.timeouts,
			BreakerTrips:        t.trips,
			Probes:              t.probes,
			SkippedRounds:       t.skips,
			StaleDrops:          t.staleDrops,
			LastTick:            t.lastTick,
			LastError:           t.lastErr,
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
