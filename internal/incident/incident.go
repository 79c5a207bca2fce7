// Package incident is the fleet's streaming anomaly-aggregation stage: it
// consumes the per-round verdict stream emitted by the sharded fleet
// monitor and reduces it to operator-facing incidents. At 32+ units one
// correlated fault produces dozens of near-identical abnormal verdicts per
// round; this layer turns that stream back into signal in four steps,
// modeled on production anomaly pipelines (change-point → dedup →
// time-cluster/lead-lag correlators → dimension-partitioned summaries):
//
//  1. Dedup: repeated per-tick abnormal verdicts for the same
//     (unit, database, deviating-KPI-set) fold into one open incident
//     carrying first-seen/last-seen ticks and a reinforcement count.
//  2. Cluster: incidents opening within a temporal-proximity window join
//     one fleet-wide cluster — "these happened together".
//  3. Lead-lag: per-KPI onset ticks feed global pairwise lag histograms,
//     so recurring cascades report "KPI A leads KPI B by ~k ticks".
//  4. Partition: a closed cluster's dimensions split into constant vs
//     varying, so six replicas decorrelating on the same disk KPI render
//     as one summary line instead of six alerts.
//
// The aggregator is a deterministic state machine over (round tick, event
// list) inputs: every mutation is announced as a Transition, and replaying
// a recorded transition sequence (Restore) rebuilds the exact state —
// including open incidents, cluster membership, and the lag histograms —
// bit for bit. That is what makes WAL-backed rehydration after a restart
// indistinguishable from an uninterrupted run.
//
// The dedup hot path (a reinforcing verdict merging into an open incident,
// plus the per-round staleness sweeps) is allocation-free at steady state;
// allocations happen only when incidents open or clusters close, which is
// by construction the rare path.
package incident

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"dbcatcher/internal/kpi"
)

// KPISet is a bitmask of deviating KPI indices (bit k set means KPI k sat
// below its correlation threshold). It is the dedup signature dimension:
// the same database deviating on a different indicator set is a different
// incident.
type KPISet uint64

// MaxKPIs bounds the indicator universe a KPISet can express.
const MaxKPIs = 64

// With returns the set with KPI k added; out-of-range k is ignored.
func (s KPISet) With(k int) KPISet {
	if k < 0 || k >= MaxKPIs {
		return s
	}
	return s | 1<<uint(k)
}

// Has reports whether KPI k is in the set.
func (s KPISet) Has(k int) bool {
	return k >= 0 && k < MaxKPIs && s&(1<<uint(k)) != 0
}

// Count returns the number of KPIs in the set.
func (s KPISet) Count() int { return bits.OnesCount64(uint64(s)) }

// Names renders the set's members, using the paper's Table II names for
// the standard layout and kpi<N> beyond it.
func (s KPISet) Names() []string {
	if s == 0 {
		return nil
	}
	out := make([]string, 0, s.Count())
	for k := 0; k < MaxKPIs; k++ {
		if s.Has(k) {
			out = append(out, kpiName(k))
		}
	}
	return out
}

// String renders the set compactly ("Com Insert|CPU Utilization").
func (s KPISet) String() string {
	if s == 0 {
		return "(unattributed)"
	}
	return strings.Join(s.Names(), "|")
}

func kpiName(k int) string {
	if k < kpi.Count {
		return kpi.KPI(k).String()
	}
	return fmt.Sprintf("kpi%d", k)
}

// Event is one unit-level abnormal observation: a single database inside a
// single unit judged Abnormal over one window, together with the KPI set
// the judgment implicated (KPIs may be zero when attribution was not
// possible, e.g. the window was already evicted).
type Event struct {
	Unit int
	DB   int
	KPIs KPISet
	// Start and End delimit the judged window [Start, End) in collection
	// ticks; End also becomes the incident's last-seen tick.
	Start, End int
}

// Transition event codes, in WAL order.
const (
	// TransOpen records a new incident opening (full initial state).
	TransOpen uint8 = 1
	// TransUpdate records a reinforcing verdict merging into an open
	// incident (the updated last-seen tick and count).
	TransUpdate uint8 = 2
	// TransClose records an incident closing after its staleness budget.
	TransClose uint8 = 3
)

// Transition is one incident-lifecycle mutation, the unit of persistence:
// the aggregator announces every open/update/close through its persist
// hook, and Restore replays a recorded sequence to rebuild the state
// machine exactly. Fields carry the incident's full post-transition state,
// so the record is self-contained.
type Transition struct {
	Event     uint8
	ID        uint64 // incident ID
	Cluster   uint64 // owning fleet-cluster ID
	Unit      int
	DB        int
	KPIs      KPISet
	FirstTick int
	LastTick  int
	Count     int
	// RoundTick is the fleet round tick at which the transition fired; it
	// is the rehydration horizon below which replayed rounds are skipped.
	RoundTick int
}

// Config tunes the aggregation state machine. The zero value selects the
// defaults noted per field.
type Config struct {
	// ProximityTicks is the temporal-proximity window for cross-unit
	// clustering: an incident opening within this many ticks of a
	// cluster's last activity joins it. Also the staleness bound after
	// which a fully-closed cluster is finalized. Default 32.
	ProximityTicks int
	// CloseAfter is the number of round ticks without a reinforcing
	// verdict after which an open incident closes. It must exceed the
	// verdict cadence (one verdict per judged window) or every incident
	// degenerates to a single window. Default 64.
	CloseAfter int
	// MaxHistory bounds the closed-incident and closed-cluster rings.
	// Default 256.
	MaxHistory int
	// MaxOpen bounds concurrently open incidents; beyond it new anomalies
	// are counted as dropped rather than tracked. Default 4096.
	MaxOpen int
}

func (c Config) withDefaults() Config {
	if c.ProximityTicks <= 0 {
		c.ProximityTicks = 32
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = 64
	}
	if c.MaxHistory <= 0 {
		c.MaxHistory = 256
	}
	if c.MaxOpen <= 0 {
		c.MaxOpen = 4096
	}
	return c
}

// Incident is one deduped run of abnormal verdicts for a single
// (unit, database, KPI-set) signature.
type Incident struct {
	ID      uint64
	Cluster uint64
	Unit    int
	DB      int
	KPIs    KPISet
	// FirstTick is the start of the first abnormal window; LastTick the
	// (exclusive) end of the latest one.
	FirstTick, LastTick int
	// Count is the number of merged abnormal verdicts.
	Count int
	// Open reports whether the incident is still accumulating.
	Open bool
}

// String renders the operator one-liner.
func (i *Incident) String() string {
	state := "closed"
	if i.Open {
		state = "open"
	}
	return fmt.Sprintf("incident %d (%s): unit %d db %d ticks [%d,%d) x%d on %s",
		i.ID, state, i.Unit, i.DB, i.FirstTick, i.LastTick, i.Count, i.KPIs)
}

// key is the dedup signature.
type key struct {
	unit, db int
	kpis     KPISet
}

// cluster is an open fleet incident: unit incidents grouped by temporal
// proximity.
type cluster struct {
	id                  uint64
	firstTick, lastTick int
	members             []*Incident
	openMembers         int
	// memberCloseRound is the latest round tick at which a member closed;
	// with staleness it determines the earliest round the cluster itself
	// may finalize (readyAt), which keeps live sweeps and deferred replay
	// sweeps closing clusters in the same order.
	memberCloseRound int
	// onsets[k] is the earliest first-seen tick of any member deviating on
	// KPI k, or -1; it feeds the lead-lag histograms at close.
	onsets [MaxKPIs]int
}

func (c *cluster) readyAt(proximity int) int {
	t := c.lastTick + proximity + 1
	if c.memberCloseRound > t {
		t = c.memberCloseRound
	}
	return t
}

// Status is the aggregator's counter snapshot for operator endpoints.
type Status struct {
	OpenIncidents   int    `json:"openIncidents"`
	ClosedIncidents uint64 `json:"closedIncidents"`
	OpenClusters    int    `json:"openClusters"`
	ClosedClusters  uint64 `json:"closedClusters"`
	// Merged counts reinforcing verdicts absorbed by dedup — the alerts
	// that did NOT page anyone.
	Merged uint64 `json:"mergedVerdicts"`
	// Dropped counts anomalies discarded at the MaxOpen bound.
	Dropped uint64 `json:"droppedEvents"`
	// Horizon is the newest round tick any transition has covered.
	Horizon int `json:"horizon"`
}

// Aggregator is the streaming incident state machine. It is safe for
// concurrent use: the fleet feeder calls ObserveRound while API handlers
// read pages and status.
type Aggregator struct {
	mu  sync.Mutex
	cfg Config

	open     map[key]*Incident
	openList []*Incident // ID order; the deterministic sweep index
	clusters []*cluster  // open clusters, ID order

	closedInc  ring[*Incident]
	closedClus ring[*ClusterReport]

	leadlag leadLag

	nextID, nextCluster uint64
	horizon             int

	merged, dropped                 uint64
	closedIncTotal, closedClusTotal uint64

	persist        func(Transition)
	onClusterClose func(*ClusterReport)

	// scratch for the cluster sweep; reused so sweeps stay allocation-free
	// once warm.
	sweep []*cluster
}

// New builds an empty aggregator.
func New(cfg Config) *Aggregator {
	cfg = cfg.withDefaults()
	a := &Aggregator{
		cfg:         cfg,
		open:        make(map[key]*Incident),
		nextID:      1,
		nextCluster: 1,
		horizon:     -1,
	}
	a.closedInc.init(cfg.MaxHistory)
	a.closedClus.init(cfg.MaxHistory)
	a.leadlag.init()
	return a
}

// SetPersist attaches the transition journal hook (e.g. the fleet WAL).
// The hook runs under the aggregator lock, in transition order; it must
// not call back into the aggregator.
func (a *Aggregator) SetPersist(fn func(Transition)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.persist = fn
}

// SetOnClusterClose attaches a hook invoked with each finalized cluster
// report (e.g. root-cause attribution + operator log). It runs under the
// aggregator lock and must not call back into the aggregator.
func (a *Aggregator) SetOnClusterClose(fn func(*ClusterReport)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onClusterClose = fn
}

// Horizon returns the newest round tick any transition has covered
// (-1 before the first).
func (a *Aggregator) Horizon() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.horizon
}

// ObserveRound folds one fleet round into the state machine: tick is the
// fleet round tick, events the round's abnormal observations in ascending
// unit order (the order fleet verdict slices already have). Rounds at or
// below the rehydration horizon are skipped — after a restart the fleet
// replays its deterministic input from tick 0, and every transition those
// rounds produced is already part of the restored state.
func (a *Aggregator) ObserveRound(tick int, events []Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if tick <= a.horizon {
		return
	}
	for i := range events {
		a.observe(tick, &events[i])
	}
	a.sweepIncidents(tick)
	a.advanceTo(tick)
}

// observe dedups one event into an open incident (the allocation-free hot
// path) or opens a new one.
func (a *Aggregator) observe(tick int, ev *Event) {
	if ev.Unit < 0 || ev.DB < 0 || ev.End <= ev.Start {
		a.dropped++
		return
	}
	k := key{unit: ev.Unit, db: ev.DB, kpis: ev.KPIs}
	if inc, ok := a.open[k]; ok {
		if ev.End > inc.LastTick {
			inc.LastTick = ev.End
		}
		inc.Count++
		a.merged++
		cl := a.findCluster(inc.Cluster)
		if cl != nil && inc.LastTick > cl.lastTick {
			cl.lastTick = inc.LastTick
		}
		a.emit(TransUpdate, inc, tick)
		return
	}
	if len(a.openList) >= a.cfg.MaxOpen {
		a.dropped++
		return
	}
	inc := &Incident{
		ID: a.nextID, Unit: ev.Unit, DB: ev.DB, KPIs: ev.KPIs,
		FirstTick: ev.Start, LastTick: ev.End, Count: 1, Open: true,
	}
	a.nextID++
	cl := a.attachable(tick)
	if cl == nil {
		cl = &cluster{id: a.nextCluster, firstTick: inc.FirstTick, lastTick: inc.LastTick}
		for i := range cl.onsets {
			cl.onsets[i] = -1
		}
		a.nextCluster++
		a.clusters = append(a.clusters, cl)
	}
	inc.Cluster = cl.id
	a.join(cl, inc)
	a.open[k] = inc
	a.openList = append(a.openList, inc)
	a.emit(TransOpen, inc, tick)
}

// attachable returns the lowest-ID open cluster still within the proximity
// window at tick, or nil.
func (a *Aggregator) attachable(tick int) *cluster {
	for _, cl := range a.clusters {
		if tick-cl.lastTick <= a.cfg.ProximityTicks {
			return cl
		}
	}
	return nil
}

func (a *Aggregator) findCluster(id uint64) *cluster {
	for _, cl := range a.clusters {
		if cl.id == id {
			return cl
		}
	}
	return nil
}

// join attaches an incident to a cluster, folding its window and onsets in.
func (a *Aggregator) join(cl *cluster, inc *Incident) {
	cl.members = append(cl.members, inc)
	cl.openMembers++
	if inc.FirstTick < cl.firstTick {
		cl.firstTick = inc.FirstTick
	}
	if inc.LastTick > cl.lastTick {
		cl.lastTick = inc.LastTick
	}
	for k := 0; k < MaxKPIs; k++ {
		if inc.KPIs.Has(k) && (cl.onsets[k] == -1 || inc.FirstTick < cl.onsets[k]) {
			cl.onsets[k] = inc.FirstTick
		}
	}
}

// sweepIncidents closes open incidents whose staleness budget expired, in
// ID order (openList order), so close sequences are deterministic.
func (a *Aggregator) sweepIncidents(tick int) {
	kept := a.openList[:0]
	for _, inc := range a.openList {
		if tick-inc.LastTick > a.cfg.CloseAfter {
			a.closeIncident(inc, tick)
			continue
		}
		kept = append(kept, inc)
	}
	// Zero the dropped tail so closed incidents do not pin the array.
	for i := len(kept); i < len(a.openList); i++ {
		a.openList[i] = nil
	}
	a.openList = kept
}

func (a *Aggregator) closeIncident(inc *Incident, tick int) {
	delete(a.open, key{unit: inc.Unit, db: inc.DB, kpis: inc.KPIs})
	inc.Open = false
	a.closedInc.push(inc)
	a.closedIncTotal++
	if cl := a.findCluster(inc.Cluster); cl != nil {
		cl.openMembers--
		if tick > cl.memberCloseRound {
			cl.memberCloseRound = tick
		}
	}
	a.emit(TransClose, inc, tick)
}

// advanceTo finalizes clusters whose close condition was met at or before
// tick: every member closed and no activity within the proximity window.
// Ready clusters close in (readyAt, ID) order — the order a live per-tick
// sweep produces — which is what lets deferred replay sweeps land in the
// identical state.
func (a *Aggregator) advanceTo(tick int) {
	a.sweep = a.sweep[:0]
	for _, cl := range a.clusters {
		if cl.openMembers == 0 && cl.readyAt(a.cfg.ProximityTicks) <= tick {
			a.sweep = append(a.sweep, cl)
		}
	}
	if len(a.sweep) == 0 {
		return
	}
	prox := a.cfg.ProximityTicks
	sort.SliceStable(a.sweep, func(i, j int) bool {
		ri, rj := a.sweep[i].readyAt(prox), a.sweep[j].readyAt(prox)
		if ri != rj {
			return ri < rj
		}
		return a.sweep[i].id < a.sweep[j].id
	})
	for _, cl := range a.sweep {
		a.closeCluster(cl)
	}
}

func (a *Aggregator) closeCluster(cl *cluster) {
	for i, c := range a.clusters {
		if c == cl {
			a.clusters = append(a.clusters[:i], a.clusters[i+1:]...)
			break
		}
	}
	a.leadlag.fold(&cl.onsets)
	rep := a.buildReport(cl, false)
	a.closedClus.push(rep)
	a.closedClusTotal++
	if a.onClusterClose != nil {
		a.onClusterClose(rep)
	}
}

func (a *Aggregator) emit(event uint8, inc *Incident, tick int) {
	if a.horizon < tick {
		a.horizon = tick
	}
	if a.persist == nil {
		return
	}
	a.persist(Transition{
		Event: event, ID: inc.ID, Cluster: inc.Cluster,
		Unit: inc.Unit, DB: inc.DB, KPIs: inc.KPIs,
		FirstTick: inc.FirstTick, LastTick: inc.LastTick,
		Count: inc.Count, RoundTick: tick,
	})
}

// Flush closes every open incident and cluster — the end-of-stream path
// for batch analyses and tests. tick should be past the stream's horizon.
func (a *Aggregator) Flush(tick int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if tick <= a.horizon {
		tick = a.horizon + 1
	}
	for _, inc := range a.openList {
		a.closeIncident(inc, tick)
	}
	for i := range a.openList {
		a.openList[i] = nil
	}
	a.openList = a.openList[:0]
	// All members are closed now; every cluster becomes ready once the
	// proximity window elapses.
	a.advanceTo(tick + a.cfg.ProximityTicks + 1)
}

// Restore replays a recorded transition sequence through the same state
// machine live observation drives, rebuilding open incidents, cluster
// membership, closed-history rings, and the lead-lag histograms exactly.
// It must be called on a fresh aggregator, before the first ObserveRound.
// A sequence a real WAL cannot produce (an update for an unknown incident,
// a duplicate open) returns an error with the state left best-effort —
// callers treat that as corruption, not a crash.
func (a *Aggregator) Restore(ts []Transition) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.open) != 0 || a.closedIncTotal != 0 {
		return fmt.Errorf("incident: Restore on a non-empty aggregator")
	}
	for i := range ts {
		t := &ts[i]
		a.advanceTo(t.RoundTick)
		if t.RoundTick > a.horizon {
			a.horizon = t.RoundTick
		}
		k := key{unit: t.Unit, db: t.DB, kpis: t.KPIs}
		switch t.Event {
		case TransOpen:
			if _, ok := a.open[k]; ok {
				return fmt.Errorf("incident: duplicate open for %v", k)
			}
			if len(a.openList) >= a.cfg.MaxOpen {
				return fmt.Errorf("incident: restored stream exceeds MaxOpen %d", a.cfg.MaxOpen)
			}
			inc := &Incident{
				ID: t.ID, Cluster: t.Cluster, Unit: t.Unit, DB: t.DB, KPIs: t.KPIs,
				FirstTick: t.FirstTick, LastTick: t.LastTick, Count: t.Count, Open: true,
			}
			if t.ID >= a.nextID {
				a.nextID = t.ID + 1
			}
			cl := a.findCluster(t.Cluster)
			if cl == nil {
				cl = &cluster{id: t.Cluster, firstTick: inc.FirstTick, lastTick: inc.LastTick}
				for j := range cl.onsets {
					cl.onsets[j] = -1
				}
				if t.Cluster >= a.nextCluster {
					a.nextCluster = t.Cluster + 1
				}
				a.clusters = append(a.clusters, cl)
				sort.Slice(a.clusters, func(x, y int) bool { return a.clusters[x].id < a.clusters[y].id })
			}
			a.join(cl, inc)
			a.open[k] = inc
			a.openList = append(a.openList, inc)
		case TransUpdate:
			inc, ok := a.open[k]
			if !ok || inc.ID != t.ID {
				return fmt.Errorf("incident: update for unknown incident %d", t.ID)
			}
			inc.LastTick = t.LastTick
			inc.Count = t.Count
			a.merged++
			if cl := a.findCluster(inc.Cluster); cl != nil && inc.LastTick > cl.lastTick {
				cl.lastTick = inc.LastTick
			}
		case TransClose:
			inc, ok := a.open[k]
			if !ok || inc.ID != t.ID {
				return fmt.Errorf("incident: close for unknown incident %d", t.ID)
			}
			inc.LastTick = t.LastTick
			inc.Count = t.Count
			for j, o := range a.openList {
				if o == inc {
					a.openList = append(a.openList[:j], a.openList[j+1:]...)
					break
				}
			}
			a.closeIncident(inc, t.RoundTick)
		default:
			return fmt.Errorf("incident: unknown transition event %d", t.Event)
		}
	}
	a.advanceTo(a.horizon)
	return nil
}

// Status snapshots the aggregation counters.
func (a *Aggregator) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Status{
		OpenIncidents:   len(a.openList),
		ClosedIncidents: a.closedIncTotal,
		OpenClusters:    len(a.clusters),
		ClosedClusters:  a.closedClusTotal,
		Merged:          a.merged,
		Dropped:         a.dropped,
		Horizon:         a.horizon,
	}
}
