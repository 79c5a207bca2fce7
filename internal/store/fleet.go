// FleetPersister is the verdict journal for every unit count: each unit
// gets a monitor.Persister adapter keyed by its index, appends land as
// RecUnitVerdict records in a single WAL, and recovery hands each unit back
// its own verdict history and dedupe horizon. The journal holds judgments,
// not judge state: a fleet re-derives detection state deterministically
// from the workload replay, and the dedupe horizon suppresses re-journaling
// the catch-up verdicts. One unit layers Persister on top, which snapshots
// its judge so it resumes at the snapshot instead.
package store

import (
	"fmt"
	"sync"

	"dbcatcher/internal/detect"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
)

// ----- Recovered interpretation: unit-keyed records -----

// unitVerdict returns the unit and verdict a verdict record carries; ok is
// false for every other record type. A legacy RecVerdict is unit 0's.
func (r *Record) unitVerdict() (unit int, v *VerdictRecord, ok bool) {
	switch r.Type {
	case RecUnitVerdict:
		return r.UnitVerdict.Unit, &r.UnitVerdict.Verdict, true
	case RecVerdict:
		return 0, &r.Verdict, true
	}
	return 0, nil, false
}

// UnitVerdictHistory returns unit's persisted verdicts in sequence order,
// for re-seeding that unit's API verdict buffer. How far back it reaches
// is bounded by segment retention.
func (r *Recovered) UnitVerdictHistory(unit int) []monitor.Verdict {
	if r == nil {
		return nil
	}
	var out []monitor.Verdict
	for i := range r.Records {
		if u, v, ok := r.Records[i].unitVerdict(); ok && u == unit {
			out = append(out, recordVerdict(*v))
		}
	}
	return out
}

// UnitDurableTicks returns, per unit, the newest tick any persisted
// verdict covers — the dedupe horizon below which regenerated catch-up
// verdicts are suppressed. Units with no records are absent.
func (r *Recovered) UnitDurableTicks() map[int]int {
	if r == nil {
		return nil
	}
	out := make(map[int]int)
	for i := range r.Records {
		u, v, ok := r.Records[i].unitVerdict()
		if !ok {
			continue
		}
		if cur, seen := out[u]; !seen || v.Tick > cur {
			out[u] = v.Tick
		}
	}
	return out
}

// IncidentTransitions returns every persisted incident transition in
// sequence order, ready for incident.Aggregator.Restore. Each round
// record's RoundTick fans out onto its transitions.
func (r *Recovered) IncidentTransitions() []incident.Transition {
	if r == nil {
		return nil
	}
	var out []incident.Transition
	for _, rec := range r.Records {
		if rec.Type != RecIncident {
			continue
		}
		for i := range rec.Incident.Transitions {
			tr := &rec.Incident.Transitions[i]
			out = append(out, incident.Transition{
				Event: tr.Event, ID: tr.ID, Cluster: tr.Cluster,
				Unit: tr.Unit, DB: tr.DB, KPIs: incident.KPISet(tr.KPIs),
				FirstTick: tr.FirstTick, LastTick: tr.LastTick,
				Count: tr.Count, RoundTick: rec.Incident.RoundTick,
			})
		}
	}
	return out
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

// ----- the verdict journal -----

// FleetPersister journals every unit's verdict stream into one Store. Its
// hooks are durability best-effort: append failures (and those of a
// Persister layered on it) are counted and surfaced via Status, never
// propagated into detection.
type FleetPersister struct {
	mu      sync.Mutex
	st      *Store
	durable map[int]int // per-unit dedupe horizon

	verdicts       uint64
	suppressed     uint64
	incidentRounds uint64
	incidentTrans  uint64
	errors         uint64
	lastErr        string
}

// NewFleetPersister builds the bridge; rec (from Open) seeds each unit's
// regeneration dedupe horizon.
func NewFleetPersister(st *Store, rec *Recovered) *FleetPersister {
	durable := rec.UnitDurableTicks()
	if durable == nil {
		durable = make(map[int]int)
	}
	return &FleetPersister{st: st, durable: durable}
}

// DurableTick returns unit's dedupe horizon (0 when nothing is on disk).
func (p *FleetPersister) DurableTick(unit int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.durable[unit]
}

// Unit returns unit i's monitor.Persister adapter. The adapter journals
// verdicts under the unit key and drops threshold swaps: the journal
// records judgment streams, and one unit's tuning state is its Persister's.
func (p *FleetPersister) Unit(i int) monitor.Persister {
	return unitPersister{p: p, unit: i}
}

type unitPersister struct {
	p    *FleetPersister
	unit int
}

func (u unitPersister) PersistVerdict(v *monitor.Verdict, _ monitor.PersistContext) {
	u.p.persistVerdict(u.unit, v)
}

func (u unitPersister) PersistThresholds(window.Thresholds, monitor.PersistContext) {}

func (p *FleetPersister) persistVerdict(unit int, v *monitor.Verdict) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if hor, ok := p.durable[unit]; ok && v.Tick <= hor {
		// Regenerated during post-restart catch-up; already on disk.
		p.suppressed++
		return
	}
	_, err := p.st.AppendUnitVerdict(UnitVerdictRecord{Unit: unit, Verdict: verdictRecord(v)})
	if err != nil {
		p.noteErrLocked(err)
		return
	}
	p.verdicts++
	p.durable[unit] = v.Tick
}

// noteErrLocked counts one failed durable write; p.mu is held.
func (p *FleetPersister) noteErrLocked(err error) {
	p.errors++
	p.lastErr = err.Error()
}

// noteErr counts err, if it is one, among the journal's failed writes.
func (p *FleetPersister) noteErr(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	p.noteErrLocked(err)
	p.mu.Unlock()
}

// RecordIncidentRound journals one fleet round's incident transitions as
// a single RecIncident record — the batch is the atomicity unit the
// aggregator's replay contract needs (a crash loses whole rounds off the
// tail, never part of one). No-op for empty rounds. Best-effort like the
// verdict path: failures are counted, not propagated. Replay dedupe needs
// no horizon here — a restored aggregator skips rounds at or below its
// own horizon, so catch-up rounds emit no transitions to re-journal.
func (p *FleetPersister) RecordIncidentRound(tick int, ts []incident.Transition) {
	if len(ts) == 0 {
		return
	}
	rec := IncidentRecord{RoundTick: tick, Transitions: make([]IncidentTransition, len(ts))}
	for i := range ts {
		t := &ts[i]
		rec.Transitions[i] = IncidentTransition{
			Event: t.Event, ID: t.ID, Cluster: t.Cluster,
			Unit: t.Unit, DB: t.DB, KPIs: uint64(t.KPIs),
			FirstTick: t.FirstTick, LastTick: t.LastTick, Count: t.Count,
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.st.AppendIncident(rec); err != nil {
		p.noteErrLocked(err)
		return
	}
	p.incidentRounds++
	p.incidentTrans += uint64(len(ts))
}

// Flush syncs the WAL — the daemon's graceful-shutdown path — and reports
// the last durable write that failed, if any did.
func (p *FleetPersister) Flush() error {
	if err := p.st.Sync(); err != nil {
		p.noteErr(err)
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastErr != "" {
		return fmt.Errorf("store: persistence degraded: %s", p.lastErr)
	}
	return nil
}

// FleetStatus summarizes fleet persistence for operator endpoints.
type FleetStatus struct {
	Dir         string `json:"dir"`
	FsyncPolicy string `json:"fsyncPolicy"`
	Units       int    `json:"unitsWithRecords"`
	Verdicts    uint64 `json:"verdicts"`
	Suppressed  uint64 `json:"suppressedReplays"`
	// IncidentRounds / IncidentTransitions count journaled incident-round
	// batches and the transitions inside them.
	IncidentRounds      uint64  `json:"incidentRounds"`
	IncidentTransitions uint64  `json:"incidentTransitions"`
	Errors              uint64  `json:"errors"`
	LastError           string  `json:"lastError,omitempty"`
	Store               Metrics `json:"store"`
}

// Status implements the server's persistence provider.
func (p *FleetPersister) Status() interface{} { return p.status() }

func (p *FleetPersister) status() FleetStatus {
	p.mu.Lock()
	st := FleetStatus{
		Dir:                 p.st.Dir(),
		FsyncPolicy:         p.st.Policy().String(),
		Units:               len(p.durable),
		Verdicts:            p.verdicts,
		Suppressed:          p.suppressed,
		IncidentRounds:      p.incidentRounds,
		IncidentTransitions: p.incidentTrans,
		Errors:              p.errors,
		LastError:           p.lastErr,
	}
	p.mu.Unlock()
	st.Store = p.st.Metrics()
	return st
}
