// Persister bridges the detector stack onto the store: it implements
// monitor.Persister (verdict + threshold hooks) and feedback.Journal
// (judgment-record journaling), decides the snapshot cadence, and dedupes
// verdicts the detector regenerates while catching up after a restart.
package store

import (
	"fmt"
	"math"
	"sync"

	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/relearn"
	"dbcatcher/internal/window"
)

// ----- Recovered interpretation helpers -----

func (r *Recovered) snapshotSeq() uint64 {
	if r == nil || r.Snapshot == nil {
		return 0
	}
	return r.Snapshot.Seq
}

// MonitorState assembles the judge state to restore: the snapshot's
// capture with any post-snapshot threshold swaps (replayed from the WAL)
// applied on top. It returns nil when nothing resumable survived.
func (r *Recovered) MonitorState() *monitor.PersistentState {
	if r == nil || r.Snapshot == nil || r.Snapshot.Monitor == nil {
		return nil
	}
	st := *r.Snapshot.Monitor
	for _, rec := range r.Records {
		if rec.Seq > r.snapshotSeq() && rec.Type == RecThresholds {
			st.Thresholds = window.Thresholds{
				Alpha:        append([]float64(nil), rec.Thresholds.Alpha...),
				Theta:        rec.Thresholds.Theta,
				MaxTolerance: rec.Thresholds.MaxTolerance,
			}
		}
	}
	return &st
}

// LatestThresholds returns the newest threshold swap on record (snapshot
// or WAL), for seeding a judge when no full monitor state survived. nil
// when none exists.
func (r *Recovered) LatestThresholds() *window.Thresholds {
	if r == nil {
		return nil
	}
	var out *window.Thresholds
	if r.Snapshot != nil && r.Snapshot.Monitor != nil {
		t := r.Snapshot.Monitor.Thresholds.Clone()
		out = &t
	}
	for _, rec := range r.Records {
		if rec.Seq > r.snapshotSeq() && rec.Type == RecThresholds {
			out = &window.Thresholds{
				Alpha:        append([]float64(nil), rec.Thresholds.Alpha...),
				Theta:        rec.Thresholds.Theta,
				MaxTolerance: rec.Thresholds.MaxTolerance,
			}
		}
	}
	return out
}

// FeedbackRecords returns the recovered judgment-record history: the
// snapshot's feedback ring plus post-snapshot WAL appends, oldest first.
func (r *Recovered) FeedbackRecords() []feedback.Record {
	if r == nil {
		return nil
	}
	var out []feedback.Record
	if r.Snapshot != nil {
		for _, f := range r.Snapshot.Feedback {
			out = append(out, feedback.Record{Start: f.Start, Size: f.Size, Predicted: f.Predicted, Actual: f.Actual})
		}
	}
	for _, rec := range r.Records {
		if rec.Seq > r.snapshotSeq() && rec.Type == RecFeedback {
			f := rec.Feedback
			out = append(out, feedback.Record{Start: f.Start, Size: f.Size, Predicted: f.Predicted, Actual: f.Actual})
		}
	}
	return out
}

// VerdictHistory converts every verdict record still on disk (sequence
// order) back to monitor verdicts, for re-seeding the API's verdict
// buffer. How far back it reaches is bounded by segment retention.
func (r *Recovered) VerdictHistory() []monitor.Verdict {
	if r == nil {
		return nil
	}
	var out []monitor.Verdict
	for _, rec := range r.Records {
		if rec.Type == RecVerdict {
			out = append(out, recordVerdict(rec.Verdict))
		}
	}
	return out
}

// ResumeTick is the collection tick the detector resumes ingesting at (the
// snapshot's position; 0 means start from scratch).
func (r *Recovered) ResumeTick() int {
	if r == nil || r.Snapshot == nil || r.Snapshot.Monitor == nil {
		return 0
	}
	return r.Snapshot.Monitor.Tick
}

// DurableTick is the newest tick any persisted verdict covers. While the
// resumed detector catches up from ResumeTick to DurableTick it regenerates
// verdicts that are already durable; the Persister suppresses re-appending
// them and callers should suppress re-publishing them.
func (r *Recovered) DurableTick() int {
	t := r.ResumeTick()
	if r != nil {
		for _, rec := range r.Records {
			if rec.Type == RecVerdict && rec.Verdict.Tick > t {
				t = rec.Verdict.Tick
			}
		}
	}
	return t
}

// LatestEpoch is the newest durably adopted fencing epoch recoverable from
// disk — the snapshot's stamp or any later RecEpoch record. A promoting
// node adopts LatestEpoch()+1.
func (r *Recovered) LatestEpoch() uint64 {
	if r == nil {
		return 0
	}
	var e uint64
	if r.Snapshot != nil {
		e = r.Snapshot.Epoch
	}
	for _, rec := range r.Records {
		if rec.Type == RecEpoch && rec.Epoch.Epoch > e {
			e = rec.Epoch.Epoch
		}
	}
	return e
}

// RelearnEvents returns every relearn lifecycle record still on disk, in
// sequence order. How far back it reaches is bounded by segment retention.
func (r *Recovered) RelearnEvents() []RelearnRecord {
	if r == nil {
		return nil
	}
	var out []RelearnRecord
	for _, rec := range r.Records {
		if rec.Type == RecRelearn {
			out = append(out, rec.Relearn)
		}
	}
	return out
}

// LastCounters returns the newest persisted health-counter sample.
func (r *Recovered) LastCounters() CountersRecord {
	var c CountersRecord
	if r == nil {
		return c
	}
	if r.Snapshot != nil {
		c = r.Snapshot.Counters
	}
	for _, rec := range r.Records {
		if rec.Seq > r.snapshotSeq() && rec.Type == RecCounters {
			c = rec.Counters
		}
	}
	return c
}

// ----- record <-> domain conversions -----

func verdictRecord(v *monitor.Verdict) VerdictRecord {
	states := make([]uint8, len(v.States))
	for i, s := range v.States {
		states[i] = uint8(s)
	}
	return VerdictRecord{
		Tick:       v.Tick,
		Start:      v.Start,
		Size:       v.Size,
		AbnormalDB: v.AbnormalDB,
		Expansions: v.Expansions,
		GapCells:   v.GapCells,
		Abnormal:   v.Abnormal,
		Health:     uint8(v.Health),
		States:     states,
	}
}

func recordVerdict(r VerdictRecord) monitor.Verdict {
	var v monitor.Verdict
	v.Tick = r.Tick
	v.Start = r.Start
	v.Size = r.Size
	v.AbnormalDB = r.AbnormalDB
	v.Expansions = r.Expansions
	v.GapCells = r.GapCells
	v.Abnormal = r.Abnormal
	v.Health = detect.Health(r.Health)
	if len(r.States) > 0 {
		v.States = make([]window.State, len(r.States))
		for i, s := range r.States {
			v.States[i] = window.State(s)
		}
	}
	return v
}

func countersRecord(h monitor.HealthStats) CountersRecord {
	return CountersRecord{
		GapCells:         h.GapCells,
		MissedTicks:      h.MissedTicks,
		Deactivations:    h.Deactivations,
		Reactivations:    h.Reactivations,
		DegradedVerdicts: h.DegradedVerdicts,
		SkippedRounds:    h.SkippedRounds,
	}
}

// ----- the Persister bridge -----

// Persister wires a Store into the online judge and the feedback ring. Its
// hooks are durability best-effort: append or snapshot failures are
// counted and surfaced via Status, never propagated into the detection
// path (detection keeps running on a full disk; durability degrades).
type Persister struct {
	mu sync.Mutex
	st *Store
	fb *feedback.Store // optional: feedback ring captured into snapshots

	every     int // verdicts between snapshots
	sinceSnap int

	resumeTick  int
	durableTick int

	verdicts         uint64
	suppressed       uint64
	feedbackRecs     uint64
	thresholdUpdates uint64
	relearnEvents    uint64
	errors           uint64
	lastErr          string
}

// NewPersister builds the bridge. rec (from Open) seeds the regeneration
// dedupe horizon; snapshotEvery is the number of verdicts between
// snapshots (minimum 1 — every verdict; threshold swaps always snapshot
// immediately so a catch-up window never spans one). fb may be nil.
func NewPersister(st *Store, rec *Recovered, fb *feedback.Store, snapshotEvery int) *Persister {
	if snapshotEvery < 1 {
		snapshotEvery = 1
	}
	return &Persister{
		st:          st,
		fb:          fb,
		every:       snapshotEvery,
		resumeTick:  rec.ResumeTick(),
		durableTick: rec.DurableTick(),
	}
}

func (p *Persister) noteErr(err error) {
	if err == nil {
		return
	}
	p.errors++
	p.lastErr = err.Error()
}

// PersistVerdict implements monitor.Persister.
func (p *Persister) PersistVerdict(v *monitor.Verdict, ctx monitor.PersistContext) {
	p.mu.Lock()
	if v.Tick <= p.durableTick {
		// Regenerated during post-restart catch-up; already on disk.
		p.suppressed++
		p.mu.Unlock()
		return
	}
	_, err := p.st.AppendVerdict(verdictRecord(v))
	p.noteErr(err)
	if err == nil {
		p.verdicts++
		p.durableTick = v.Tick
	}
	_, err = p.st.AppendCounters(countersRecord(ctx.Health()))
	p.noteErr(err)
	p.sinceSnap++
	snap := p.sinceSnap >= p.every
	if snap {
		p.sinceSnap = 0
	}
	p.mu.Unlock()
	if snap {
		p.snapshot(ctx.Export(), ctx.Health())
	}
}

// PersistThresholds implements monitor.Persister. A threshold swap is
// journaled and then immediately snapshotted: thresholds are low-rate
// state, and anchoring a snapshot at every swap guarantees the post-crash
// catch-up window never replays rounds across a threshold change.
func (p *Persister) PersistThresholds(t window.Thresholds, ctx monitor.PersistContext) {
	p.mu.Lock()
	_, err := p.st.AppendThresholds(ThresholdsRecord{
		Tick:         ctx.Tick(),
		Alpha:        append([]float64(nil), t.Alpha...),
		Theta:        t.Theta,
		MaxTolerance: t.MaxTolerance,
	})
	p.noteErr(err)
	if err == nil {
		p.thresholdUpdates++
	}
	p.sinceSnap = 0
	p.mu.Unlock()
	p.snapshot(ctx.Export(), ctx.Health())
}

// RecordRelearn implements relearn.Recorder: lifecycle transitions are
// journaled so a promotion's provenance (trigger, attempt, holdout scores,
// shadow flip rate) survives a crash. Non-finite scores are stored as -1;
// every valid score is non-negative, so the sentinel is unambiguous.
func (p *Persister) RecordRelearn(ev relearn.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.st.AppendRelearn(RelearnRecord{
		Tick:           ev.Tick,
		Attempt:        ev.Attempt,
		TrainRecords:   ev.TrainRecords,
		HoldoutRecords: ev.HoldoutRecords,
		Event:          uint8(ev.Kind),
		Fitness:        sanitizeScore(ev.Fitness),
		Baseline:       sanitizeScore(ev.Baseline),
		FlipRate:       sanitizeScore(ev.FlipRate),
	})
	p.noteErr(err)
	if err == nil {
		p.relearnEvents++
	}
}

func sanitizeScore(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// JournalRecord implements feedback.Journal.
func (p *Persister) JournalRecord(r feedback.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.st.AppendFeedback(FeedbackRecord{Start: r.Start, Size: r.Size, Predicted: r.Predicted, Actual: r.Actual})
	p.noteErr(err)
	if err == nil {
		p.feedbackRecs++
	}
}

// snapshot captures seq before gathering state so a record journaled
// concurrently is never silently dropped from recovery — at worst it is
// both inside the snapshot and replayed on top (at-least-once; the
// feedback ring tolerates a duplicate mark, losing one does real harm).
func (p *Persister) snapshot(st *monitor.PersistentState, h monitor.HealthStats) {
	seq := p.st.LastSeq()
	var fbRecs []FeedbackRecord
	if p.fb != nil {
		for _, r := range p.fb.Snapshot() {
			fbRecs = append(fbRecs, FeedbackRecord{Start: r.Start, Size: r.Size, Predicted: r.Predicted, Actual: r.Actual})
		}
	}
	err := p.st.WriteSnapshot(SnapshotState{
		Seq:      seq,
		Monitor:  st,
		Feedback: fbRecs,
		Counters: countersRecord(h),
	})
	p.mu.Lock()
	p.noteErr(err)
	p.mu.Unlock()
}

// Flush writes a final snapshot of the judge's current state and syncs the
// WAL — the graceful-shutdown path (SIGTERM).
func (p *Persister) Flush(o *monitor.Online) error {
	p.snapshot(o.ExportState(), o.Health())
	if err := p.st.Sync(); err != nil {
		p.mu.Lock()
		p.noteErr(err)
		p.mu.Unlock()
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastErr != "" {
		return fmt.Errorf("store: persistence degraded: %s", p.lastErr)
	}
	return nil
}

// Status summarizes persistence for operator endpoints.
type Status struct {
	Dir              string  `json:"dir"`
	FsyncPolicy      string  `json:"fsyncPolicy"`
	ResumeTick       int     `json:"resumeTick"`
	DurableTick      int     `json:"durableTick"`
	Verdicts         uint64  `json:"verdicts"`
	Suppressed       uint64  `json:"suppressedReplays"`
	FeedbackRecords  uint64  `json:"feedbackRecords"`
	ThresholdUpdates uint64  `json:"thresholdUpdates"`
	RelearnEvents    uint64  `json:"relearnEvents"`
	Errors           uint64  `json:"errors"`
	LastError        string  `json:"lastError,omitempty"`
	Store            Metrics `json:"store"`
}

// Status implements the server's persistence provider.
func (p *Persister) Status() interface{} {
	p.mu.Lock()
	st := Status{
		Dir:              p.st.Dir(),
		FsyncPolicy:      p.st.Policy().String(),
		ResumeTick:       p.resumeTick,
		DurableTick:      p.durableTick,
		Verdicts:         p.verdicts,
		Suppressed:       p.suppressed,
		FeedbackRecords:  p.feedbackRecs,
		ThresholdUpdates: p.thresholdUpdates,
		RelearnEvents:    p.relearnEvents,
		Errors:           p.errors,
		LastError:        p.lastErr,
	}
	p.mu.Unlock()
	st.Store = p.st.Metrics()
	return st
}
