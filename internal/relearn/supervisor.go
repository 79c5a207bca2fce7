package relearn

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dbcatcher/internal/feedback"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/thresholds"
	"dbcatcher/internal/window"
)

// State names the supervisor's lifecycle phase.
type State int

const (
	// Idle: no retrain in flight; triggers are being watched.
	Idle State = iota
	// Searching: a deadline-bounded search goroutine is running.
	Searching
	// Shadowing: a validated candidate is being compared against the live
	// thresholds on live traffic.
	Shadowing
)

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Searching:
		return "searching"
	case Shadowing:
		return "shadowing"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// EventKind labels a relearn lifecycle transition.
type EventKind uint8

const (
	// EventStarted: an attempt began (Reason names the trigger).
	EventStarted EventKind = iota + 1
	// EventFailed: the attempt died — panic, deadline, or no samples.
	EventFailed
	// EventRejected: the search finished but the candidate failed holdout
	// validation (regression beyond ε, non-finite, or invalid).
	EventRejected
	// EventShadowing: the candidate passed holdout validation and entered
	// the shadow comparison.
	EventShadowing
	// EventPromoted: the shadow comparison passed; the candidate is live.
	EventPromoted
	// EventRolledBack: the shadow flip rate blew the budget; the candidate
	// was discarded and the live thresholds stand untouched.
	EventRolledBack
)

func (k EventKind) String() string {
	switch k {
	case EventStarted:
		return "started"
	case EventFailed:
		return "failed"
	case EventRejected:
		return "rejected"
	case EventShadowing:
		return "shadowing"
	case EventPromoted:
		return "promoted"
	case EventRolledBack:
		return "rolled_back"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one relearn lifecycle transition, emitted to the Recorder (the
// durable store journals them as WAL records).
type Event struct {
	Kind EventKind
	// Tick is the collection tick at which the transition was observed.
	Tick int
	// Attempt numbers the retrain attempt, starting at 1.
	Attempt int
	// TrainRecords and HoldoutRecords count the materialized samples.
	TrainRecords, HoldoutRecords int
	// Fitness is the candidate's holdout fitness, Baseline the live
	// thresholds' (meaningful for rejected/shadowing events).
	Fitness, Baseline float64
	// FlipRate is the shadow comparison's verdict-flip rate (meaningful
	// for promoted/rolled-back events).
	FlipRate float64
	// Reason is the trigger name (started) or the failure cause.
	Reason string
}

// Recorder receives lifecycle events. Calls arrive from the supervisor's
// goroutines without the supervisor lock held; implementations must be
// safe for concurrent use and must not call back into the Supervisor.
type Recorder interface {
	RecordRelearn(Event)
}

// Config tunes the supervisor. The zero value works: every field defaults
// to the documented value.
type Config struct {
	// Q is the KPI count of the judged unit (required).
	Q int
	// Searcher runs the optimization; nil means the default GA (whose
	// population/generation budget bounds the work per attempt even
	// without the deadline).
	Searcher thresholds.ContextSearcher
	// Deadline bounds one search's wall-clock time (default 30s).
	Deadline time.Duration
	// CooldownTicks is the minimum collection-tick gap between attempts
	// (default 200). Consecutive failures back it off exponentially, up
	// to 8x.
	CooldownTicks int
	// ShadowTicks is how many live ticks a validated candidate is
	// shadow-judged before promotion (default 100).
	ShadowTicks int
	// Drift tunes the Page-Hinkley test on the correlation distance.
	Drift DriftConfig
	// Policy is the F-Measure activation criterion (zero value means the
	// paper's 75%-over-200-records default). Its MinRecords also gates
	// every attempt.
	Policy feedback.Policy
	// Seed drives the holdout split and the default searcher.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 200
	}
	if c.ShadowTicks <= 0 {
		c.ShadowTicks = 100
	}
	if c.Policy == (feedback.Policy{}) {
		c.Policy = feedback.DefaultPolicy()
	}
	if c.Searcher == nil {
		c.Searcher = thresholds.GA{Seed: c.Seed}
	}
	return c
}

const (
	// flipBudget is the maximum tolerated verdict-flip rate during
	// shadowing; above it the candidate is rolled back.
	flipBudget = 0.2
	// epsilon is the tolerated holdout-fitness regression: candidates
	// scoring below baseline-epsilon are rejected.
	epsilon = 0.02
	// holdoutRatio is the fraction of judgment records held out for
	// validation.
	holdoutRatio = 0.3
	// minCorrections is the accumulated-DBA-corrections trigger: retrain
	// when at least this many corrections arrived since the last attempt.
	minCorrections = 10
)

// Supervisor is the drift-triggered relearning loop. It is driven entirely
// by ObserveVerdict — one call per verdict the online judge emits — plus
// the optional TriggerManual; the only goroutine it owns is the
// single-flight retrain worker. All failure modes of that worker (panic,
// deadline, bad candidate) resolve to the live thresholds standing
// untouched.
//
// Lock ordering: the supervisor's mutex is taken strictly before the
// online judge's (the judge never calls the supervisor), so the two can
// never deadlock.
type Supervisor struct {
	cfg    Config
	online *monitor.Online
	fb     *feedback.Store
	src    SampleSource
	rec    Recorder

	mu           sync.Mutex
	state        State
	closed       bool
	attempt      int
	promotions   int
	rollbacks    int
	rejections   int
	failures     int
	consec       int // consecutive non-promoted attempts, for backoff
	lastEndTick  int
	lastAppended int
	manual       bool
	driftAlarm   bool
	driftAlarms  int
	lastErr      string
	cancel       context.CancelFunc
	wg           sync.WaitGroup

	drift *PageHinkley
}

// NewSupervisor wires the loop to a live judge, the feedback store, and a
// sample source. Attach a Recorder with SetRecorder before streaming if
// lifecycle events should be journaled.
func NewSupervisor(cfg Config, online *monitor.Online, fb *feedback.Store, src SampleSource) *Supervisor {
	cfg = cfg.withDefaults()
	return &Supervisor{
		cfg:    cfg,
		online: online,
		fb:     fb,
		src:    src,
		drift:  NewPageHinkley(cfg.Drift),
	}
}

// SetRecorder attaches (or with nil detaches) the lifecycle-event sink.
func (s *Supervisor) SetRecorder(r Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = r
}

// ObserveVerdict advances the supervisor by one verdict: it feeds the
// drift test, decides an in-flight shadow comparison, and fires a retrain
// when a trigger condition holds. Call it after every Push that returned a
// verdict. It never blocks on the search itself.
func (s *Supervisor) ObserveVerdict(v *monitor.Verdict) {
	if v == nil {
		return
	}
	var evs []Event
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if !math.IsNaN(v.MeanCorr) && s.drift.Observe(1-v.MeanCorr) {
		s.driftAlarm = true
		s.driftAlarms++
	}
	switch s.state {
	case Shadowing:
		if ev, ok := s.decideShadowLocked(v.Tick); ok {
			evs = append(evs, ev)
		}
	case Idle:
		if s.eligibleLocked(v.Tick) {
			if reason := s.triggerLocked(); reason != "" {
				evs = append(evs, s.startLocked(v.Tick, reason))
			}
		}
	}
	s.mu.Unlock()
	s.emit(evs...)
}

// TriggerManual starts an attempt immediately (bypassing cooldown and
// trigger conditions, not the record minimum). It fails when an attempt is
// already in flight or the supervisor is stopped.
func (s *Supervisor) TriggerManual() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("relearn: supervisor stopped")
	}
	if s.state != Idle {
		s.mu.Unlock()
		return fmt.Errorf("relearn: attempt %d already in flight (%s)", s.attempt, s.state)
	}
	if n := s.fb.Len(); n < s.cfg.Policy.MinRecords {
		s.mu.Unlock()
		return fmt.Errorf("relearn: %d judgment records, need %d", n, s.cfg.Policy.MinRecords)
	}
	ev := s.startLocked(s.online.Processor().Ticks(), "manual")
	s.mu.Unlock()
	s.emit(ev)
	return nil
}

// Stop cancels any in-flight search, joins the retrain goroutine, and
// abandons any shadow comparison. Safe to call more than once; after Stop
// the supervisor ignores verdicts and refuses triggers.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.closed = true
	if s.cancel != nil {
		s.cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.online.StopShadow()
}

// Status is a point-in-time snapshot for the status API.
type Status struct {
	State            string  `json:"state"`
	Attempts         int     `json:"attempts"`
	Promotions       int     `json:"promotions"`
	Rollbacks        int     `json:"rollbacks"`
	Rejections       int     `json:"rejections"`
	Failures         int     `json:"failures"`
	DriftAlarms      int     `json:"drift_alarms"`
	DriftStat        float64 `json:"drift_stat"`
	DriftPending     bool    `json:"drift_pending"`
	Records          int     `json:"records"`
	NextEligibleTick int     `json:"next_eligible_tick"`
	LastError        string  `json:"last_error,omitempty"`
	ShadowRounds     int     `json:"shadow_rounds,omitempty"`
	ShadowFlips      int     `json:"shadow_flips,omitempty"`
	ShadowTicksLeft  int     `json:"shadow_ticks_left,omitempty"`
}

// Status snapshots the supervisor.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		State:            s.state.String(),
		Attempts:         s.attempt,
		Promotions:       s.promotions,
		Rollbacks:        s.rollbacks,
		Rejections:       s.rejections,
		Failures:         s.failures,
		DriftAlarms:      s.driftAlarms,
		DriftStat:        s.drift.Stat(),
		DriftPending:     s.driftAlarm,
		Records:          s.fb.Len(),
		NextEligibleTick: s.nextEligibleLocked(),
		LastError:        s.lastErr,
	}
	if s.state == Shadowing {
		sh := s.online.ShadowStatus()
		st.ShadowRounds = sh.Rounds
		st.ShadowFlips = sh.Flips
		if left := sh.TargetTicks - sh.TicksElapsed; left > 0 {
			st.ShadowTicksLeft = left
		}
	}
	return st
}

// nextEligibleLocked is the first tick at which an automatic attempt may
// start: the cooldown after the previous attempt, backed off exponentially
// (capped at 8x) while attempts keep failing.
func (s *Supervisor) nextEligibleLocked() int {
	if s.attempt == 0 {
		return 0
	}
	backoff := 1 << s.consec
	if backoff > 8 {
		backoff = 8
	}
	return s.lastEndTick + s.cfg.CooldownTicks*backoff
}

func (s *Supervisor) eligibleLocked(tick int) bool {
	return s.fb.Len() >= s.cfg.Policy.MinRecords && tick >= s.nextEligibleLocked()
}

// triggerLocked names the trigger condition that holds, or "" when none
// does: a pending drift alarm, enough accumulated DBA corrections since
// the last attempt, or the paper's F-Measure activation criterion.
func (s *Supervisor) triggerLocked() string {
	if s.manual {
		s.manual = false
		return "manual"
	}
	if s.driftAlarm {
		return "drift"
	}
	if n := s.fb.Appended() - s.lastAppended; n > 0 && s.fb.Corrections(n) >= minCorrections {
		return "corrections"
	}
	if s.cfg.Policy.ShouldRetrain(s.fb) {
		return "fmeasure"
	}
	return ""
}

// startLocked launches the single-flight retrain goroutine.
func (s *Supervisor) startLocked(tick int, reason string) Event {
	s.attempt++
	s.state = Searching
	s.driftAlarm = false
	s.lastAppended = s.fb.Appended()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	attempt := s.attempt
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		ev, cand := s.runSearch(ctx, attempt)
		s.finish(ev, cand)
	}()
	return Event{Kind: EventStarted, Tick: tick, Attempt: attempt, Reason: reason}
}

// runSearch is the isolated retrain body: split, materialize, search under
// deadline, validate on the holdout. It never touches the live thresholds
// and converts its own panics into failure events.
func (s *Supervisor) runSearch(ctx context.Context, attempt int) (ev Event, cand window.Thresholds) {
	ev = Event{Kind: EventFailed, Attempt: attempt}
	defer func() {
		if r := recover(); r != nil {
			ev.Kind = EventFailed
			ev.Reason = fmt.Sprintf("retrain panic: %v", r)
			cand = window.Thresholds{}
		}
	}()

	train, holdout := s.fb.Split(holdoutRatio, s.cfg.Seed+uint64(attempt))
	trainSamples, trainDropped := Materialize(s.src, train)
	holdSamples, holdDropped := Materialize(s.src, holdout)
	ev.TrainRecords, ev.HoldoutRecords = len(trainSamples), len(holdSamples)
	if len(trainSamples) == 0 || len(holdSamples) == 0 {
		ev.Reason = fmt.Sprintf("no materializable samples (%d train / %d holdout dropped)", trainDropped, holdDropped)
		return ev, window.Thresholds{}
	}
	searchFit := thresholds.DetectorFitness(trainSamples, window.DefaultFlexConfig())
	holdFit := thresholds.DetectorFitness(holdSamples, window.DefaultFlexConfig())
	ev.Baseline = holdFit(s.online.Thresholds())

	sctx, scancel := context.WithTimeout(ctx, s.cfg.Deadline)
	defer scancel()
	res, err := s.cfg.Searcher.SearchContext(sctx, s.cfg.Q, searchFit)
	if err != nil {
		ev.Reason = fmt.Sprintf("search aborted: %v", err)
		return ev, window.Thresholds{}
	}
	cand = res.Best
	if err := cand.Validate(s.cfg.Q); err != nil {
		ev.Kind = EventRejected
		ev.Reason = fmt.Sprintf("invalid candidate: %v", err)
		return ev, window.Thresholds{}
	}
	if !finiteThresholds(cand) {
		ev.Kind = EventRejected
		ev.Reason = "candidate has non-finite parameters"
		return ev, window.Thresholds{}
	}
	ev.Fitness = holdFit(cand)
	if math.IsNaN(ev.Fitness) || ev.Fitness < ev.Baseline-epsilon {
		ev.Kind = EventRejected
		ev.Reason = fmt.Sprintf("holdout fitness %.4f regresses baseline %.4f beyond epsilon %.4f", ev.Fitness, ev.Baseline, epsilon)
		return ev, window.Thresholds{}
	}
	ev.Kind = EventShadowing
	ev.Reason = ""
	return ev, cand
}

// finish lands the retrain goroutine's outcome: a validated candidate
// enters the shadow comparison; everything else returns the supervisor to
// idle with the live thresholds untouched.
func (s *Supervisor) finish(ev Event, cand window.Thresholds) {
	s.mu.Lock()
	ev.Tick = s.online.Processor().Ticks()
	s.cancel = nil
	if s.closed {
		// Shutdown raced the retrain: drop the outcome without starting a
		// shadow comparison nobody will decide.
		s.state = Idle
		s.mu.Unlock()
		return
	}
	switch ev.Kind {
	case EventShadowing:
		if err := s.online.StartShadow(cand, s.cfg.ShadowTicks); err != nil {
			ev.Kind = EventFailed
			ev.Reason = fmt.Sprintf("start shadow: %v", err)
			s.failLocked(ev)
		} else {
			s.state = Shadowing
			s.lastErr = ""
		}
	case EventRejected:
		s.rejections++
		s.failLocked(ev)
	default:
		s.failures++
		s.failLocked(ev)
	}
	s.mu.Unlock()
	s.emit(ev)
}

func (s *Supervisor) failLocked(ev Event) {
	s.state = Idle
	s.consec++
	s.lastEndTick = ev.Tick
	s.lastErr = ev.Reason
}

// decideShadowLocked resolves a finished shadow comparison: within the
// flip budget the candidate is promoted atomically (validation, swap, and
// persistence under the judge mutex); beyond it the candidate is discarded
// — the live thresholds were never modified, so the rollback is complete
// the moment the shadow is dropped.
func (s *Supervisor) decideShadowLocked(tick int) (Event, bool) {
	sh := s.online.ShadowStatus()
	if !sh.Active {
		// Shadow withdrawn externally; no penalty, back to watching.
		s.state = Idle
		s.lastEndTick = tick
		return Event{}, false
	}
	if !sh.Done {
		return Event{}, false
	}
	ev := Event{Tick: tick, Attempt: s.attempt, FlipRate: sh.FlipRate()}
	if sh.FlipRate() <= flipBudget {
		if err := s.online.PromoteShadow(); err != nil {
			ev.Kind = EventFailed
			ev.Reason = fmt.Sprintf("promote: %v", err)
			s.failures++
			s.failLocked(ev)
			return ev, true
		}
		ev.Kind = EventPromoted
		s.promotions++
		s.consec = 0
		s.state = Idle
		s.lastEndTick = tick
		s.lastErr = ""
		return ev, true
	}
	s.online.StopShadow()
	ev.Kind = EventRolledBack
	ev.Reason = fmt.Sprintf("flip rate %.3f over budget %.3f", sh.FlipRate(), flipBudget)
	s.rollbacks++
	s.failLocked(ev)
	return ev, true
}

func (s *Supervisor) emit(evs ...Event) {
	s.mu.Lock()
	rec := s.rec
	s.mu.Unlock()
	if rec == nil {
		return
	}
	for _, ev := range evs {
		rec.RecordRelearn(ev)
	}
}

func finiteThresholds(t window.Thresholds) bool {
	for _, a := range t.Alpha {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return false
		}
	}
	return !math.IsNaN(t.Theta) && !math.IsInf(t.Theta, 0)
}
