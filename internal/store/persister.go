// Persister is the one-unit state layer over the verdict journal: it
// implements monitor.Persister (verdict + threshold hooks), feedback.Journal
// (judgment-record journaling) and relearn.Recorder, and decides the
// snapshot cadence of the judge's state. Each verdict goes to unit 0's
// journal adapter (FleetPersister.Unit(0)), which appends it and dedupes
// the verdicts the detector regenerates while catching up after a restart.
package store

import (
	"math"
	"sync"

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

// ResumeTick is the collection tick the detector resumes ingesting at (the
// snapshot's position; 0 means start from scratch).
func (r *Recovered) ResumeTick() int {
	if r == nil || r.Snapshot == nil || r.Snapshot.Monitor == nil {
		return 0
	}
	return r.Snapshot.Monitor.Tick
}

// DurableTick is the newest collection tick the recovered state covers:
// the snapshot's position or any unit's newest persisted verdict,
// whichever is later. A node adopting a fencing epoch stamps it into the
// epoch record.
func (r *Recovered) DurableTick() int {
	t := r.ResumeTick()
	for _, d := range r.UnitDurableTicks() {
		t = max(t, d)
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

// ----- the one-unit state layer -----

// Persister wires one unit's judge state and feedback ring into the store
// beside its verdict journal. Its hooks are durability best-effort: append
// or snapshot failures are counted with the journal's and surfaced via
// Status, never propagated into the detection path (detection keeps
// running on a full disk; durability degrades).
type Persister struct {
	mu      sync.Mutex
	journal *FleetPersister
	unit    monitor.Persister // journal.Unit(0)
	fb      *feedback.Store   // optional: feedback ring captured into snapshots

	every     int // verdicts between snapshots
	sinceSnap int

	resumeTick int
	// replayTo is unit 0's recovered dedupe horizon: a verdict at or below
	// it is a catch-up replay and does not advance the snapshot cadence.
	replayTo int

	feedbackRecs     uint64
	thresholdUpdates uint64
	relearnEvents    uint64
}

// NewPersister builds the state layer over journal, the store's verdict
// journal. rec (from Open) gives the resume position; snapshotEvery is the
// number of verdicts between snapshots (minimum 1 — every verdict;
// threshold swaps always snapshot immediately so a catch-up window never
// spans one). fb may be nil.
func NewPersister(journal *FleetPersister, rec *Recovered, fb *feedback.Store, snapshotEvery int) *Persister {
	return &Persister{
		journal:    journal,
		unit:       journal.Unit(0),
		fb:         fb,
		every:      max(snapshotEvery, 1),
		resumeTick: rec.ResumeTick(),
		replayTo:   journal.DurableTick(0),
	}
}

// PersistVerdict implements monitor.Persister.
func (p *Persister) PersistVerdict(v *monitor.Verdict, ctx monitor.PersistContext) {
	p.unit.PersistVerdict(v, ctx)
	if v.Tick <= p.replayTo {
		return
	}
	p.mu.Lock()
	p.sinceSnap++
	snap := p.sinceSnap >= p.every
	if snap {
		p.sinceSnap = 0
	}
	p.mu.Unlock()
	if snap {
		p.snapshot(ctx.Export())
	}
}

// PersistThresholds implements monitor.Persister. A threshold swap is
// journaled and then immediately snapshotted: thresholds are low-rate
// state, and anchoring a snapshot at every swap guarantees the post-crash
// catch-up window never replays rounds across a threshold change.
func (p *Persister) PersistThresholds(t window.Thresholds, ctx monitor.PersistContext) {
	p.mu.Lock()
	_, err := p.journal.st.AppendThresholds(ThresholdsRecord{
		Tick:         ctx.Tick(),
		Alpha:        append([]float64(nil), t.Alpha...),
		Theta:        t.Theta,
		MaxTolerance: t.MaxTolerance,
	})
	if err == nil {
		p.thresholdUpdates++
	}
	p.sinceSnap = 0
	p.mu.Unlock()
	p.journal.noteErr(err)
	p.snapshot(ctx.Export())
}

// RecordRelearn implements relearn.Recorder: lifecycle transitions are
// journaled so a promotion's provenance (trigger, attempt, holdout scores,
// shadow flip rate) survives a crash. Non-finite scores are stored as -1;
// every valid score is non-negative, so the sentinel is unambiguous.
func (p *Persister) RecordRelearn(ev relearn.Event) {
	p.mu.Lock()
	_, err := p.journal.st.AppendRelearn(RelearnRecord{
		Tick:           ev.Tick,
		Attempt:        ev.Attempt,
		TrainRecords:   ev.TrainRecords,
		HoldoutRecords: ev.HoldoutRecords,
		Event:          uint8(ev.Kind),
		Fitness:        sanitizeScore(ev.Fitness),
		Baseline:       sanitizeScore(ev.Baseline),
		FlipRate:       sanitizeScore(ev.FlipRate),
	})
	if err == nil {
		p.relearnEvents++
	}
	p.mu.Unlock()
	p.journal.noteErr(err)
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
	_, err := p.journal.st.AppendFeedback(FeedbackRecord{Start: r.Start, Size: r.Size, Predicted: r.Predicted, Actual: r.Actual})
	if err == nil {
		p.feedbackRecs++
	}
	p.mu.Unlock()
	p.journal.noteErr(err)
}

// snapshot captures seq before gathering state so a record journaled
// concurrently is never silently dropped from recovery — at worst it is
// both inside the snapshot and replayed on top (at-least-once; the
// feedback ring tolerates a duplicate mark, losing one does real harm).
func (p *Persister) snapshot(st *monitor.PersistentState) {
	seq := p.journal.st.LastSeq()
	var fbRecs []FeedbackRecord
	if p.fb != nil {
		for _, r := range p.fb.Snapshot() {
			fbRecs = append(fbRecs, FeedbackRecord{Start: r.Start, Size: r.Size, Predicted: r.Predicted, Actual: r.Actual})
		}
	}
	p.journal.noteErr(p.journal.st.WriteSnapshot(SnapshotState{Seq: seq, Monitor: st, Feedback: fbRecs}))
}

// Flush writes a final snapshot of the judge's current state and flushes
// the journal — the graceful-shutdown path (SIGTERM). Like the journal's
// Flush it reports any write that failed, snapshots included.
func (p *Persister) Flush(o *monitor.Online) error {
	p.snapshot(o.ExportState())
	return p.journal.Flush()
}

// Status summarizes one unit's persistence for operator endpoints.
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

// Status implements the server's persistence provider: the journal's
// verdict and error counts beside the state layer's own.
func (p *Persister) Status() interface{} {
	j := p.journal.status()
	durable := max(p.resumeTick, p.journal.DurableTick(0))
	p.mu.Lock()
	defer p.mu.Unlock()
	return Status{
		Dir:              j.Dir,
		FsyncPolicy:      j.FsyncPolicy,
		ResumeTick:       p.resumeTick,
		DurableTick:      durable,
		Verdicts:         j.Verdicts,
		Suppressed:       j.Suppressed,
		FeedbackRecords:  p.feedbackRecs,
		ThresholdUpdates: p.thresholdUpdates,
		RelearnEvents:    p.relearnEvents,
		Errors:           j.Errors,
		LastError:        j.LastError,
		Store:            j.Store,
	}
}
