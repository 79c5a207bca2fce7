// Durable-state hooks for the online judge. The monitor itself stays
// storage-free: it exports and restores a point-in-time PersistentState and
// notifies an optional Persister on the two events that change durable
// state — a verdict resolving and a threshold swap. The storage layer
// (internal/store) implements Persister; with no persister attached the
// detection path is byte-for-byte the in-memory behaviour.
package monitor

import (
	"fmt"
	"math"

	"dbcatcher/internal/window"
)

// Persister receives durability hooks from the online judge. Both hooks run
// synchronously with the judge's mutex held, so implementations must not
// call back into Online methods — locked state access goes through the
// PersistContext instead. Hook latency directly extends Push latency (an
// fsync-per-append policy pays its fsync inside the judgment lock).
type Persister interface {
	// PersistVerdict is invoked for every emitted verdict, including
	// HealthSkipped resync verdicts.
	PersistVerdict(v *Verdict, ctx PersistContext)
	// PersistThresholds is invoked after a threshold swap has been
	// applied, under the same mutex that guards Push — a racing round
	// can never judge with a half-applied set, and the persisted order
	// matches the applied order.
	PersistThresholds(t window.Thresholds, ctx PersistContext)
}

// PersistContext gives a Persister locked access to the judge's state from
// inside a hook (where calling the public, self-locking accessors would
// deadlock). It is only valid for the duration of the hook call.
type PersistContext struct{ o *Online }

// Export captures the judge's full persistent state.
func (c PersistContext) Export() *PersistentState { return c.o.exportLocked() }

// Tick returns the number of ingested collection ticks.
func (c PersistContext) Tick() int { return c.o.proc.Ticks() }

// SetPersister attaches (or, with nil, detaches) the durability hooks.
// Persistence is strictly opt-in: with no persister the detection path is
// unchanged.
func (o *Online) SetPersister(p Persister) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.persister = p
}

// RingState is one (KPI, database) queue's retained tail. Gap slots store a
// zero value with the mask set (NaN does not survive JSON encoding).
type RingState struct {
	Values []float64 `json:"values"`
	Gaps   []bool    `json:"gaps,omitempty"`
}

// PersistentState is a point-in-time capture of everything the online judge
// needs to resume after a restart: the detection position (round start,
// window size, expansions), the learned thresholds, the degraded-mode
// accounting, and the ring tails covering the in-flight round. It is
// JSON-encodable for snapshot files.
type PersistentState struct {
	KPIs   int               `json:"kpis"`
	DBs    int               `json:"dbs"`
	Flex   window.FlexConfig `json:"flex"`
	Tick   int               `json:"tick"`
	Oldest int               `json:"oldest"`

	RoundStart int `json:"roundStart"`
	FlexSize   int `json:"flexSize"`
	Expansions int `json:"expansions"`
	Primary    int `json:"primary"`

	Thresholds window.Thresholds `json:"thresholds"`
	UserActive []bool            `json:"userActive,omitempty"`

	AutoDown    []bool   `json:"autoDown"`
	SilentHist  [][]bool `json:"silentHist"`
	HistIdx     int      `json:"histIdx"`
	HistFilled  int      `json:"histFilled"`
	SilentCount []int    `json:"silentCount"`
	CleanStreak []int    `json:"cleanStreak"`

	Deactivations    int `json:"deactivations"`
	Reactivations    int `json:"reactivations"`
	DegradedVerdicts int `json:"degradedVerdicts"`
	SkippedRounds    int `json:"skippedRounds"`
	GapCells         int `json:"gapCells"`
	MissedTicks      int `json:"missedTicks"`

	// Rings holds the (KPI, database) tails in row-major order
	// (k*DBs + d), each of length Tick-Oldest. An export starts them at
	// the round in flight (RoundStart, or the oldest retained tick if a
	// self-healing round fell off the rings): judgment, gap repair and
	// window growth read nothing older. A restore accepts any span up to
	// the ring capacity.
	Rings []RingState `json:"rings"`
}

// ExportState captures the judge's persistent state. It is safe to call
// concurrently with Push (e.g. for a shutdown snapshot).
func (o *Online) ExportState() *PersistentState {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.exportLocked()
}

func (o *Online) exportLocked() *PersistentState {
	p := o.proc
	p.mu.Lock()
	defer p.mu.Unlock()
	oldest := p.oldestLocked()
	from := max(o.roundStart, oldest)
	n := p.total - from
	st := &PersistentState{
		KPIs:   p.kpis,
		DBs:    p.dbs,
		Flex:   o.cfg.Flex,
		Tick:   p.total,
		Oldest: from,

		RoundStart: o.roundStart,
		FlexSize:   o.flex.Size(),
		Expansions: o.expansions,
		Primary:    o.cfg.Primary,

		Thresholds: o.cfg.Thresholds.Clone(),

		AutoDown:    append([]bool(nil), o.autoDown...),
		SilentHist:  make([][]bool, len(o.silentHist)),
		HistIdx:     o.histIdx,
		HistFilled:  o.histFilled,
		SilentCount: append([]int(nil), o.silentCount...),
		CleanStreak: append([]int(nil), o.cleanStreak...),

		Deactivations:    o.deactivations,
		Reactivations:    o.reactivations,
		DegradedVerdicts: o.degradedVerdicts,
		SkippedRounds:    o.skippedRounds,
		GapCells:         p.gapCells,
		MissedTicks:      p.missedTicks,

		Rings: make([]RingState, p.kpis*p.dbs),
	}
	if o.userActive != nil {
		st.UserActive = append([]bool(nil), o.userActive...)
	}
	for i := range o.silentHist {
		st.SilentHist[i] = append([]bool(nil), o.silentHist[i]...)
	}
	for k := 0; k < p.kpis; k++ {
		for d := 0; d < p.dbs; d++ {
			ring := p.rings[k][d]
			rs := RingState{Values: make([]float64, n)}
			for i, at := 0, from-oldest; i < n; i, at = i+1, at+1 {
				if ring.IsGap(at) {
					if rs.Gaps == nil {
						rs.Gaps = make([]bool, n)
					}
					rs.Gaps[i] = true
					continue
				}
				rs.Values[i] = sanitizeForJSON(ring.At(at))
			}
			st.Rings[k*p.dbs+d] = rs
		}
	}
	return st
}

// RestoreState rebuilds the judge from a previously exported state. The
// state must match the judge's shape and flexible-window configuration;
// detection resumes exactly where the export left off (mid-round exports
// included). Degraded-mode rolling accounting is restored when its budget
// window matches the current configuration and reinitialized (keeping the
// cumulative counters) otherwise.
func (o *Online) RestoreState(st *PersistentState) error {
	if st == nil {
		return fmt.Errorf("monitor: nil persistent state")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	kpis, dbs := o.proc.Shape()
	if st.KPIs != kpis || st.DBs != dbs {
		return fmt.Errorf("monitor: state shape %dx%d, judge is %dx%d", st.KPIs, st.DBs, kpis, dbs)
	}
	if st.Flex != o.cfg.Flex {
		return fmt.Errorf("monitor: state flex config %+v does not match %+v", st.Flex, o.cfg.Flex)
	}
	if err := st.Thresholds.Validate(kpis); err != nil {
		return fmt.Errorf("monitor: state thresholds: %w", err)
	}
	n := st.Tick - st.Oldest
	cap := o.proc.rings[0][0].Cap()
	if n < 0 || n > cap || st.Oldest < 0 {
		return fmt.Errorf("monitor: state retains %d ticks (capacity %d)", n, cap)
	}
	if len(st.Rings) != kpis*dbs {
		return fmt.Errorf("monitor: state has %d rings, want %d", len(st.Rings), kpis*dbs)
	}
	for i, rs := range st.Rings {
		if len(rs.Values) != n || (rs.Gaps != nil && len(rs.Gaps) != n) {
			return fmt.Errorf("monitor: ring %d holds %d values, want %d", i, len(rs.Values), n)
		}
	}
	if st.RoundStart < 0 || st.RoundStart > st.Tick {
		return fmt.Errorf("monitor: state round start %d outside [0, %d]", st.RoundStart, st.Tick)
	}
	if st.UserActive != nil && len(st.UserActive) != dbs {
		return fmt.Errorf("monitor: state active mask has %d entries for %d databases", len(st.UserActive), dbs)
	}
	if err := o.flex.Restore(st.FlexSize); err != nil {
		return fmt.Errorf("monitor: %w", err)
	}

	proc := NewProcessor(kpis, dbs, cap)
	for k := 0; k < kpis; k++ {
		for d := 0; d < dbs; d++ {
			rs := st.Rings[k*dbs+d]
			ring := proc.rings[k][d]
			for i := 0; i < n; i++ {
				if rs.Gaps != nil && rs.Gaps[i] {
					ring.PushGap()
				} else {
					ring.Push(rs.Values[i])
				}
			}
		}
	}
	proc.total = st.Tick
	proc.gapCells = st.GapCells
	proc.missedTicks = st.MissedTicks
	o.proc = proc

	o.roundStart = st.RoundStart
	o.expansions = st.Expansions
	o.last = nil // evidence is not persisted
	o.cfg.Primary = st.Primary
	o.cfg.Thresholds = st.Thresholds.Clone()
	o.userActive = nil
	if st.UserActive != nil {
		o.userActive = append([]bool(nil), st.UserActive...)
	}

	o.initDegraded(dbs)
	o.deactivations = st.Deactivations
	o.reactivations = st.Reactivations
	o.degradedVerdicts = st.DegradedVerdicts
	o.skippedRounds = st.SkippedRounds
	if o.degradedShapeMatches(st, dbs) {
		copy(o.autoDown, st.AutoDown)
		for i := range o.silentHist {
			copy(o.silentHist[i], st.SilentHist[i])
		}
		o.histIdx = st.HistIdx
		o.histFilled = st.HistFilled
		copy(o.silentCount, st.SilentCount)
		copy(o.cleanStreak, st.CleanStreak)
	}
	return nil
}

// degradedShapeMatches reports whether the exported rolling accounting fits
// the judge's current budget window, the flex config's maximum window (a
// state written under a different flex config, or a damaged one, does
// not).
func (o *Online) degradedShapeMatches(st *PersistentState, dbs int) bool {
	if len(st.SilentHist) != len(o.silentHist) ||
		len(st.AutoDown) != dbs || len(st.SilentCount) != dbs || len(st.CleanStreak) != dbs {
		return false
	}
	if st.HistIdx < 0 || st.HistIdx >= len(o.silentHist) ||
		st.HistFilled < 0 || st.HistFilled > len(o.silentHist) {
		return false
	}
	for _, row := range st.SilentHist {
		if len(row) != dbs {
			return false
		}
	}
	return true
}

// sanitizeForJSON guards against non-finite values leaking into a snapshot
// (a gap is the only legitimate NaN source, and those are masked).
func sanitizeForJSON(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
