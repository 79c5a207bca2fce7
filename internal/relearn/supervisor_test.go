package relearn_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/relearn"
	"dbcatcher/internal/store"
	"dbcatcher/internal/thresholds"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// The shared fixture: one simulated unit with injected anomalies and the
// judgment records a DBA reviewing the offline detector's verdicts would
// produce. Built once; every test treats it as read-only.
var (
	fixtureOnce sync.Once
	fixtureUnit *cluster.Unit
	fixtureRecs []feedback.Record
	fixtureErr  error
)

func fixture(t *testing.T) (*cluster.Unit, []feedback.Record) {
	t.Helper()
	fixtureOnce.Do(func() {
		u, err := cluster.Simulate(cluster.Config{
			Name: "relearn", Databases: 5, Ticks: 1200, Seed: 41,
			Profile: workload.TencentIrregular,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
			Ticks: 1200, Databases: 5, TargetRatio: 0.1,
		}, mathx.NewRNG(42))
		labels, err := anomaly.Inject(u, events, mathx.NewRNG(43))
		if err != nil {
			fixtureErr = err
			return
		}
		verdicts, _, err := detect.Run(u.Series, detect.Config{
			Thresholds: window.DefaultThresholds(kpi.Count),
		})
		if err != nil {
			fixtureErr = err
			return
		}
		truePos := 0
		for _, v := range verdicts {
			actual := false
			for tick := v.Start; tick < v.Start+v.Size && tick < len(labels.Point); tick++ {
				if labels.Point[tick] {
					actual = true
					break
				}
			}
			if v.Abnormal && actual {
				truePos++
			}
			fixtureRecs = append(fixtureRecs, feedback.Record{
				Start: v.Start, Size: v.Size, Predicted: v.Abnormal, Actual: actual,
			})
		}
		fixtureUnit = u
		if len(fixtureRecs) < 15 || truePos < 3 {
			fixtureErr = fmt.Errorf("weak fixture: %d records, %d true positives", len(fixtureRecs), truePos)
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureUnit, fixtureRecs
}

func newOnline(t *testing.T) *monitor.Online {
	t.Helper()
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
	}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// feed replays the unit through the judge, observing every push exactly
// like the daemon's feeder loop does.
func feed(t *testing.T, o *monitor.Online, u *cluster.Unit, sup *relearn.Supervisor) []*monitor.Verdict {
	t.Helper()
	sample := make([][]float64, u.Series.KPIs)
	for k := range sample {
		sample[k] = make([]float64, u.Series.Databases)
	}
	var out []*monitor.Verdict
	for tick := 0; tick < u.Series.Len(); tick++ {
		for k := 0; k < u.Series.KPIs; k++ {
			for d := 0; d < u.Series.Databases; d++ {
				sample[k][d] = u.Series.Data[k][d].At(tick)
			}
		}
		v, err := o.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if sup != nil {
			sup.ObserveVerdict(v)
		}
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// fakeSearcher turns a closure into a ContextSearcher for fault injection.
type fakeSearcher struct {
	name string
	fn   func(ctx context.Context, q int, fit thresholds.Fitness) (thresholds.Result, error)
}

func (f fakeSearcher) Name() string { return f.name }
func (f fakeSearcher) Search(q int, fit thresholds.Fitness) thresholds.Result {
	r, _ := f.fn(context.Background(), q, fit)
	return r
}
func (f fakeSearcher) SearchContext(ctx context.Context, q int, fit thresholds.Fitness) (thresholds.Result, error) {
	return f.fn(ctx, q, fit)
}

// eventLog is a Recorder capturing lifecycle events for assertions.
type eventLog struct {
	mu  sync.Mutex
	evs []relearn.Event
}

func (l *eventLog) RecordRelearn(ev relearn.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) kinds() []relearn.EventKind {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]relearn.EventKind, len(l.evs))
	for i, ev := range l.evs {
		out[i] = ev.Kind
	}
	return out
}

func (l *eventLog) has(k relearn.EventKind) bool {
	for _, got := range l.kinds() {
		if got == k {
			return true
		}
	}
	return false
}

// waitState polls until the supervisor reaches one of the wanted states.
func waitState(t *testing.T, sup *relearn.Supervisor, want ...string) relearn.Status {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := sup.Status()
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("supervisor stuck in %q waiting for %v", sup.Status().State, want)
	return relearn.Status{}
}

// alwaysFire marks every database abnormal every round (scores can never
// reach alpha = 2); neverFire can never mark anything (scores are >= -1).
func alwaysFire() window.Thresholds {
	th := window.Thresholds{Alpha: make([]float64, kpi.Count), Theta: 0, MaxTolerance: 0}
	for i := range th.Alpha {
		th.Alpha[i] = 2
	}
	return th
}

func neverFire() window.Thresholds {
	th := window.Thresholds{Alpha: make([]float64, kpi.Count), Theta: 0.25, MaxTolerance: 2}
	for i := range th.Alpha {
		th.Alpha[i] = -2
	}
	return th
}

func testConfig(s thresholds.ContextSearcher) relearn.Config {
	return relearn.Config{
		Q: kpi.Count, Searcher: s, Deadline: 5 * time.Second,
		CooldownTicks: 1, ShadowTicks: 30, Seed: 99,
		// Auto triggers are off unless a test turns one on: each test
		// drives exactly one attempt so the assertions stay exact. The
		// drift alarm's threshold is out of reach and no F-Measure falls
		// below -1; an attempt still needs 10 records.
		Drift:  relearn.DriftConfig{Lambda: 1e9},
		Policy: feedback.Policy{Criterion: -1, MinRecords: 10, Window: 200},
	}
}

// TestFaultInjectionMatrix is the acceptance gate: a panicking,
// deadline-exceeding, regressing, or NaN-producing retrain must leave the
// live thresholds bit-identical, resolve to a failed/rejected attempt, and
// leave the verdict stream byte-for-byte equal to a run with no supervisor
// at all.
func TestFaultInjectionMatrix(t *testing.T) {
	u, recs := fixture(t)
	reference := feed(t, newOnline(t), u, nil)

	cases := []struct {
		name     string
		searcher fakeSearcher
		deadline time.Duration
		wantKind relearn.EventKind
		wantErr  string
	}{
		{
			name: "panic",
			searcher: fakeSearcher{name: "panic", fn: func(context.Context, int, thresholds.Fitness) (thresholds.Result, error) {
				panic("kaboom")
			}},
			wantKind: relearn.EventFailed,
			wantErr:  "retrain panic",
		},
		{
			name: "deadline",
			searcher: fakeSearcher{name: "deadline", fn: func(ctx context.Context, _ int, _ thresholds.Fitness) (thresholds.Result, error) {
				<-ctx.Done()
				return thresholds.Result{}, ctx.Err()
			}},
			deadline: 50 * time.Millisecond,
			wantKind: relearn.EventFailed,
			wantErr:  "search aborted",
		},
		{
			name: "regressing",
			searcher: fakeSearcher{name: "regressing", fn: func(context.Context, int, thresholds.Fitness) (thresholds.Result, error) {
				return thresholds.Result{Best: neverFire(), Fitness: 1}, nil
			}},
			wantKind: relearn.EventRejected,
			wantErr:  "regresses baseline",
		},
		{
			name: "nan",
			searcher: fakeSearcher{name: "nan", fn: func(context.Context, int, thresholds.Fitness) (thresholds.Result, error) {
				th := window.DefaultThresholds(kpi.Count)
				th.Theta = math.NaN()
				return thresholds.Result{Best: th, Fitness: 1}, nil
			}},
			wantKind: relearn.EventRejected,
			wantErr:  "non-finite",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			online := newOnline(t)
			fb := feedback.NewStoreFrom(256, recs)
			cfg := testConfig(tc.searcher)
			if tc.deadline > 0 {
				cfg.Deadline = tc.deadline
			}
			sup := relearn.NewSupervisor(cfg, online, fb, relearn.SeriesSource{U: u.Series})
			defer sup.Stop()
			log := &eventLog{}
			sup.SetRecorder(log)

			before := online.Thresholds()
			if err := sup.TriggerManual(); err != nil {
				t.Fatal(err)
			}
			st := waitState(t, sup, "idle")
			if st.Attempts != 1 {
				t.Fatalf("attempts = %d", st.Attempts)
			}
			switch tc.wantKind {
			case relearn.EventFailed:
				if st.Failures != 1 || st.Rejections != 0 {
					t.Fatalf("failures/rejections = %d/%d, want 1/0", st.Failures, st.Rejections)
				}
			case relearn.EventRejected:
				if st.Rejections != 1 || st.Failures != 0 {
					t.Fatalf("failures/rejections = %d/%d, want 0/1", st.Failures, st.Rejections)
				}
			}
			if !strings.Contains(st.LastError, tc.wantErr) {
				t.Fatalf("last error %q does not mention %q", st.LastError, tc.wantErr)
			}
			if !log.has(relearn.EventStarted) || !log.has(tc.wantKind) {
				t.Fatalf("event kinds %v missing started/%v", log.kinds(), tc.wantKind)
			}
			if got := online.Thresholds(); !reflect.DeepEqual(got, before) {
				t.Fatalf("live thresholds changed: %+v -> %+v", before, got)
			}

			// Detection must be unperturbed: the verdict stream with the
			// failed retrain in flight is pinned to the no-relearn stream.
			verdicts := feed(t, online, u, sup)
			if len(verdicts) != len(reference) {
				t.Fatalf("verdict count %d, reference %d", len(verdicts), len(reference))
			}
			for i := range verdicts {
				if !reflect.DeepEqual(*verdicts[i], *reference[i]) {
					t.Fatalf("verdict %d diverged:\n  got  %+v\n  want %+v", i, *verdicts[i], *reference[i])
				}
			}
			if got := online.Thresholds(); !reflect.DeepEqual(got, before) {
				t.Fatalf("live thresholds changed during replay: %+v", got)
			}
		})
	}
}

// TestShadowRollbackOnFlipBudget drives the one dangerous path: a candidate
// that *passes* holdout validation (the feedback records all claim
// anomalies, so an always-firing candidate scores perfectly) but disagrees
// with the live judge on live traffic. The shadow gate must catch it and
// roll back without ever touching the live thresholds.
func TestShadowRollbackOnFlipBudget(t *testing.T) {
	u, recs := fixture(t)
	poisoned := make([]feedback.Record, len(recs))
	for i, r := range recs {
		r.Actual = true
		r.Predicted = false
		poisoned[i] = r
	}
	online := newOnline(t)
	fb := feedback.NewStoreFrom(256, poisoned)
	searcher := fakeSearcher{name: "hostile", fn: func(context.Context, int, thresholds.Fitness) (thresholds.Result, error) {
		return thresholds.Result{Best: alwaysFire(), Fitness: 1}, nil
	}}
	sup := relearn.NewSupervisor(testConfig(searcher), online, fb, relearn.SeriesSource{U: u.Series})
	defer sup.Stop()
	log := &eventLog{}
	sup.SetRecorder(log)

	before := online.Thresholds()
	if err := sup.TriggerManual(); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, sup, "shadowing"); st.Attempts != 1 {
		t.Fatalf("attempts = %d", st.Attempts)
	}
	feed(t, online, u, sup)
	st := sup.Status()
	if st.State != "idle" || st.Rollbacks != 1 || st.Promotions != 0 {
		t.Fatalf("status after rollback: %+v", st)
	}
	if !strings.Contains(st.LastError, "over budget") {
		t.Fatalf("last error %q", st.LastError)
	}
	if !log.has(relearn.EventShadowing) || !log.has(relearn.EventRolledBack) {
		t.Fatalf("event kinds %v", log.kinds())
	}
	if got := online.Thresholds(); !reflect.DeepEqual(got, before) {
		t.Fatalf("rollback touched live thresholds: %+v", got)
	}
	if online.ShadowStatus().Active {
		t.Fatal("shadow still active after rollback")
	}
}

// TestPromotionSurvivesCrashRecovery drives the happy path end to end with
// a real durable store attached: candidate accepted, shadow clean, swap
// journaled and snapshotted — a reopen recovers exactly the promoted set
// plus the full lifecycle event trail.
func TestPromotionSurvivesCrashRecovery(t *testing.T) {
	u, recs := fixture(t)
	dir := t.TempDir()
	st, rec, err := store.Open(dir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	online := newOnline(t)
	fb := feedback.NewStoreFrom(256, recs)
	pers := store.NewPersister(store.NewFleetPersister(st, rec), rec, fb, 1)
	online.SetPersister(pers)

	cand := window.DefaultThresholds(kpi.Count)
	cand.Theta = 0.26
	searcher := fakeSearcher{name: "good", fn: func(context.Context, int, thresholds.Fitness) (thresholds.Result, error) {
		return thresholds.Result{Best: cand.Clone(), Fitness: 1}, nil
	}}
	cfg := testConfig(searcher)
	sup := relearn.NewSupervisor(cfg, online, fb, relearn.SeriesSource{U: u.Series})
	sup.SetRecorder(pers)

	if err := sup.TriggerManual(); err != nil {
		t.Fatal(err)
	}
	waitState(t, sup, "shadowing")
	feed(t, online, u, sup)
	status := sup.Status()
	if status.Promotions != 1 || status.State != "idle" {
		t.Fatalf("status after promotion: %+v", status)
	}
	if got := online.Thresholds(); !reflect.DeepEqual(got, cand) {
		t.Fatalf("live thresholds %+v, want promoted %+v", got, cand)
	}
	sup.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the swap must recover whole — the promoted set, never a torn
	// intermediate — along with the journaled lifecycle.
	st2, rec2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	th := rec2.LatestThresholds()
	if th == nil {
		t.Fatal("no thresholds recovered")
	}
	if !reflect.DeepEqual(*th, cand) {
		t.Fatalf("recovered thresholds %+v, want %+v", *th, cand)
	}
	evs := rec2.RelearnEvents()
	if len(evs) == 0 {
		t.Fatal("no relearn events recovered")
	}
	var sawStarted, sawShadowing, sawPromoted bool
	for _, ev := range evs {
		switch relearn.EventKind(ev.Event) {
		case relearn.EventStarted:
			sawStarted = true
		case relearn.EventShadowing:
			sawShadowing = true
		case relearn.EventPromoted:
			sawPromoted = true
			if ev.FlipRate != 0 {
				t.Fatalf("promoted flip rate %v, want 0", ev.FlipRate)
			}
		}
	}
	if !sawStarted || !sawShadowing || !sawPromoted {
		t.Fatalf("recovered event trail incomplete: %+v", evs)
	}
}

// TestStopDuringActiveRetrain is the lifecycle/leak gate: stopping the
// supervisor mid-search must cancel the search promptly, join the retrain
// goroutine, and leave the supervisor inert — the daemon's SIGTERM path.
func TestStopDuringActiveRetrain(t *testing.T) {
	u, recs := fixture(t)
	online := newOnline(t)
	fb := feedback.NewStoreFrom(256, recs)
	sawCancel := make(chan struct{})
	searcher := fakeSearcher{name: "blocking", fn: func(ctx context.Context, _ int, _ thresholds.Fitness) (thresholds.Result, error) {
		<-ctx.Done()
		close(sawCancel)
		return thresholds.Result{}, ctx.Err()
	}}
	cfg := testConfig(searcher)
	cfg.Deadline = time.Minute // only Stop's cancellation can end the search
	sup := relearn.NewSupervisor(cfg, online, fb, relearn.SeriesSource{U: u.Series})
	if err := sup.TriggerManual(); err != nil {
		t.Fatal(err)
	}
	if st := sup.Status(); st.State != "searching" {
		t.Fatalf("state %q, want searching", st.State)
	}

	stopped := make(chan struct{})
	go func() {
		sup.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not join the retrain goroutine")
	}
	select {
	case <-sawCancel:
	default:
		t.Fatal("search never observed cancellation")
	}
	if err := sup.TriggerManual(); err == nil {
		t.Fatal("stopped supervisor accepted a trigger")
	}
	sup.ObserveVerdict(&monitor.Verdict{Tick: 1, MeanCorr: 0.5}) // must be inert, not panic
	sup.Stop()                                                   // idempotent
}

// TestDriftTriggerStartsAttempt feeds the supervisor a fabricated verdict
// stream whose correlation collapses and expects the Page-Hinkley alarm to
// start an attempt on its own.
func TestDriftTriggerStartsAttempt(t *testing.T) {
	u, recs := fixture(t)
	// Every record agrees with its verdict, so the corrections trigger
	// stays quiet and only the drift alarm can start the attempt.
	agreed := make([]feedback.Record, len(recs))
	for i, r := range recs {
		r.Actual = r.Predicted
		agreed[i] = r
	}
	online := newOnline(t)
	fb := feedback.NewStoreFrom(256, agreed)
	searcher := fakeSearcher{name: "instant", fn: func(context.Context, int, thresholds.Fitness) (thresholds.Result, error) {
		return thresholds.Result{Best: neverFire()}, nil
	}}
	cfg := testConfig(searcher)
	cfg.Drift = relearn.DriftConfig{} // the default test; its warm-up ends inside the shifted stream below
	sup := relearn.NewSupervisor(cfg, online, fb, relearn.SeriesSource{U: u.Series})
	defer sup.Stop()
	log := &eventLog{}
	sup.SetRecorder(log)

	tick := 0
	for i := 0; i < 10; i++ {
		tick++
		sup.ObserveVerdict(&monitor.Verdict{Tick: tick, MeanCorr: 0.9})
	}
	for i := 0; i < 50 && !log.has(relearn.EventStarted); i++ {
		tick++
		sup.ObserveVerdict(&monitor.Verdict{Tick: tick, MeanCorr: 0.1})
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.evs) == 0 || log.evs[0].Kind != relearn.EventStarted || log.evs[0].Reason != "drift" {
		t.Fatalf("events %+v, want a drift-started attempt", log.evs)
	}
}

// TestCorrectionsTriggerStartsAttempt: enough accumulated DBA corrections
// alone must start an attempt, with the drift signal quiet.
func TestCorrectionsTriggerStartsAttempt(t *testing.T) {
	u, recs := fixture(t)
	corrected := make([]feedback.Record, len(recs))
	for i, r := range recs {
		r.Actual = !r.Predicted // every record is a correction
		corrected[i] = r
	}
	online := newOnline(t)
	fb := feedback.NewStoreFrom(256, corrected)
	searcher := fakeSearcher{name: "instant", fn: func(context.Context, int, thresholds.Fitness) (thresholds.Result, error) {
		return thresholds.Result{Best: neverFire()}, nil
	}}
	cfg := testConfig(searcher)
	sup := relearn.NewSupervisor(cfg, online, fb, relearn.SeriesSource{U: u.Series})
	defer sup.Stop()
	log := &eventLog{}
	sup.SetRecorder(log)

	sup.ObserveVerdict(&monitor.Verdict{Tick: 1, MeanCorr: 0.9})
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.evs) == 0 || log.evs[0].Kind != relearn.EventStarted || log.evs[0].Reason != "corrections" {
		t.Fatalf("events %+v, want a corrections-started attempt", log.evs)
	}
}

// TestManualTriggerRefusals pins the 409 conditions the API surfaces.
func TestManualTriggerRefusals(t *testing.T) {
	u, recs := fixture(t)
	online := newOnline(t)

	starved := feedback.NewStore(8)
	supStarved := relearn.NewSupervisor(testConfig(fakeSearcher{name: "x", fn: func(context.Context, int, thresholds.Fitness) (thresholds.Result, error) {
		return thresholds.Result{}, nil
	}}), online, starved, relearn.SeriesSource{U: u.Series})
	defer supStarved.Stop()
	if err := supStarved.TriggerManual(); err == nil {
		t.Fatal("trigger with too few records accepted")
	}

	fb := feedback.NewStoreFrom(256, recs)
	blocking := fakeSearcher{name: "blocking", fn: func(ctx context.Context, _ int, _ thresholds.Fitness) (thresholds.Result, error) {
		<-ctx.Done()
		return thresholds.Result{}, ctx.Err()
	}}
	sup := relearn.NewSupervisor(testConfig(blocking), online, fb, relearn.SeriesSource{U: u.Series})
	defer sup.Stop()
	if err := sup.TriggerManual(); err != nil {
		t.Fatal(err)
	}
	if err := sup.TriggerManual(); err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("second trigger err = %v, want in-flight refusal", err)
	}
}
