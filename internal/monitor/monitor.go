// Package monitor implements DBCatcher's data processing module (§III-A):
// per-(KPI, database) queues fed by a collector at 5-second intervals, and
// an online streaming judge that runs the flexible-window detection as
// points arrive, waiting for more data whenever a round is "observable".
//
// Real collectors are lossy: points drop, rows arrive truncated, and whole
// databases go silent mid-round. The monitor therefore runs a degraded-mode
// ingestion layer: missing cells are recorded as explicit gaps (judged
// through the gap-tolerant KCD path), databases whose recent gap ratio
// exceeds a budget are auto-deactivated (and re-activated on recovery), and
// a judgment round that loses its window resynchronizes and reports the
// skipped range instead of wedging.
package monitor

import (
	"fmt"
	"math"
	"sync"

	"dbcatcher/internal/correlate"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/window"
)

// Processor maintains the per-KPI, per-database observation queues. The
// paper's module keeps one queue per KPI per database; Processor uses
// fixed-capacity rings sized to cover the maximum detection window. It is
// safe for concurrent use.
type Processor struct {
	mu          sync.Mutex
	kpis        int
	dbs         int
	rings       [][]*timeseries.Ring
	total       int // points ingested since start
	gapCells    int // cumulative gap cells recorded
	missedTicks int // cumulative wholly-missed ticks
}

// NewProcessor allocates queues for the given shape; capacity is the ring
// depth and must cover the maximum window plus any judgment lag.
func NewProcessor(kpis, dbs, capacity int) *Processor {
	if kpis <= 0 || dbs <= 0 {
		panic("monitor: non-positive shape")
	}
	p := &Processor{kpis: kpis, dbs: dbs}
	p.rings = make([][]*timeseries.Ring, kpis)
	for k := range p.rings {
		p.rings[k] = make([]*timeseries.Ring, dbs)
		for d := range p.rings[k] {
			p.rings[k][d] = timeseries.NewRing(capacity)
		}
	}
	return p
}

// Shape returns the configured KPI and database counts.
func (p *Processor) Shape() (kpis, dbs int) { return p.kpis, p.dbs }

// Ticks returns the number of samples ingested so far.
func (p *Processor) Ticks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// Oldest returns the absolute tick index of the oldest retained point (0
// until the rings start evicting).
func (p *Processor) Oldest() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.oldestLocked()
}

func (p *Processor) oldestLocked() int {
	return p.total - p.rings[0][0].Len()
}

// GapStats returns the cumulative count of gap cells recorded and of
// wholly-missed collection ticks.
func (p *Processor) GapStats() (gapCells, missedTicks int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gapCells, p.missedTicks
}

// IngestDegraded adds one collection tick tolerating delivery faults: a nil
// sample is a wholly-missed tick, missing KPI rows and truncated rows mark
// their absent cells as gaps, and NaN cells are gaps. Oversized samples
// (more rows than KPIs, or rows longer than the database count) still
// error — shape excess is a pipeline bug, not data loss.
//
// It returns the number of gap cells recorded for this tick. When silent is
// non-nil it must have one entry per database; silent[d] is set to whether
// database d delivered no usable cell at all this tick.
func (p *Processor) IngestDegraded(sample [][]float64, silent []bool) (gaps int, err error) {
	if len(sample) > p.kpis {
		return 0, fmt.Errorf("monitor: sample has %d KPI rows, want at most %d", len(sample), p.kpis)
	}
	for k, row := range sample {
		if len(row) > p.dbs {
			return 0, fmt.Errorf("monitor: KPI %d row has %d databases, want at most %d", k, len(row), p.dbs)
		}
	}
	if silent != nil && len(silent) != p.dbs {
		return 0, fmt.Errorf("monitor: silent scratch has %d entries for %d databases", len(silent), p.dbs)
	}
	for d := range silent {
		silent[d] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := 0; k < p.kpis; k++ {
		var row []float64
		if k < len(sample) {
			row = sample[k]
		}
		for d := 0; d < p.dbs; d++ {
			if d < len(row) && !math.IsNaN(row[d]) {
				p.rings[k][d].Push(row[d])
				if silent != nil {
					silent[d] = false
				}
				continue
			}
			p.rings[k][d].PushGap()
			gaps++
		}
	}
	p.gapCells += gaps
	if gaps == p.kpis*p.dbs {
		p.missedTicks++
	}
	p.total++
	return gaps, nil
}

// WindowStats summarizes collector damage inside a materialized window.
type WindowStats struct {
	// Gaps is the total number of gap cells in the window.
	Gaps int
	// PerDB counts gap cells per database, summed across KPIs.
	PerDB []int
}

// Window materializes the series covering the absolute tick range
// [start, start+size) as a UnitSeries. Gap points read NaN (the
// gap-tolerant correlation path repairs them). It fails when the range has
// been evicted from the rings or has not arrived yet.
func (p *Processor) Window(start, size int) (*timeseries.UnitSeries, error) {
	u, _, err := p.readWindow(nil, start, size, nil)
	return u, err
}

// WindowWithStats is Window additionally reporting the gap cells inside the
// materialized range.
func (p *Processor) WindowWithStats(start, size int) (*timeseries.UnitSeries, WindowStats, error) {
	stats := WindowStats{PerDB: make([]int, p.dbs)}
	u, gaps, err := p.readWindow(nil, start, size, stats.PerDB)
	if err != nil {
		return nil, WindowStats{}, err
	}
	stats.Gaps = gaps
	return u, stats, nil
}

// readWindow copies the absolute tick range [start, start+size) from the
// rings into dst and returns it with the number of gap cells inside the
// range, adding each database's share to perDB when it is non-nil. A nil
// dst gets a fresh layout; a reused one must come from newWindowSeries with
// room for the ring capacity, which bounds every readable window.
func (p *Processor) readWindow(dst *timeseries.UnitSeries, start, size int, perDB []int) (*timeseries.UnitSeries, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if size <= 0 {
		return nil, 0, fmt.Errorf("monitor: non-positive window size %d", size)
	}
	if start+size > p.total {
		return nil, 0, fmt.Errorf("monitor: window [%d, %d) not yet collected (have %d)", start, start+size, p.total)
	}
	oldest := p.oldestLocked()
	if start < oldest {
		return nil, 0, fmt.Errorf("monitor: window start %d evicted (oldest %d)", start, oldest)
	}
	if dst == nil {
		dst = newWindowSeries(p.kpis, p.dbs, size)
	}
	gaps := 0
	for k, row := range p.rings {
		for d, ring := range row {
			// Ring index 0 is absolute tick `oldest`.
			s := dst.Data[k][d]
			s.Values = s.Values[:size]
			g := ring.CopyRange(s.Values, start-oldest)
			gaps += g
			if perDB != nil {
				perDB[d] += g
			}
		}
	}
	return dst, gaps, nil
}

// newWindowSeries allocates an unnamed kpis × dbs layout whose series share
// one backing slab with room for capacity points each.
func newWindowSeries(kpis, dbs, capacity int) *timeseries.UnitSeries {
	slab := make([]float64, kpis*dbs*capacity)
	series := make([]timeseries.Series, kpis*dbs)
	cells := make([]*timeseries.Series, kpis*dbs)
	u := &timeseries.UnitSeries{Unit: "live", KPIs: kpis, Databases: dbs, Data: make([][]*timeseries.Series, kpis)}
	for i := range series {
		series[i] = timeseries.Series{
			IntervalSeconds: timeseries.DefaultIntervalSeconds,
			Values:          slab[i*capacity : i*capacity : (i+1)*capacity],
		}
		cells[i] = &series[i]
	}
	for k := range u.Data {
		u.Data[k] = cells[k*dbs : (k+1)*dbs : (k+1)*dbs]
	}
	return u
}

// Verdict augments a detection verdict with collection bookkeeping.
type Verdict struct {
	detect.Verdict
	// Tick is the absolute collection tick at which the round completed.
	Tick int
	// GapCells counts the collector gaps inside the judged window (for
	// HealthSkipped verdicts it counts nothing — the range was not judged).
	GapCells int
	// MeanCorr is the mean pairwise correlation score across the round's
	// KPI matrices, over pairs of active databases — the live signal the
	// drift detector watches (a workload shift pushes the whole
	// distribution down long before verdicts flip). NaN for skipped
	// rounds, where nothing was measured.
	MeanCorr float64
}

// gapBudget is the fraction of silent ticks, over the flex config's
// maximum window of recent ticks, beyond which the online judge
// auto-deactivates a database. A deactivated database comes back after an
// initial window's worth of consecutive usable ticks.
const gapBudget = 0.5

// HealthStats is a snapshot of the degraded-mode bookkeeping.
type HealthStats struct {
	// GapCells and MissedTicks are cumulative ingestion-side counts.
	GapCells    int
	MissedTicks int
	// Deactivations and Reactivations count automatic mask flips.
	Deactivations int
	Reactivations int
	// DegradedVerdicts and SkippedRounds count downgraded judgment rounds.
	DegradedVerdicts int
	SkippedRounds    int
	// AutoDeactivated marks databases currently benched by the gap budget.
	AutoDeactivated []bool
	// SilentRecent counts each database's silent ticks within the current
	// budget window.
	SilentRecent []int
}

// Online couples a Processor with the streaming judgment loop: push one
// sample per tick and receive a verdict whenever a round resolves. When a
// round is Observable, Online simply waits for Δ more points — the
// "DBCatcher waits for data points" behaviour of §III-C.
//
// Online is safe for concurrent use: threshold/mask mutators may run while
// a feeder goroutine pushes samples.
type Online struct {
	mu         sync.Mutex
	cfg        detect.Config
	engine     *correlate.Engine
	proc       *Processor
	flex       *window.Flex
	roundStart int
	expansions int

	// Degraded-mode state: the configured activation mask (Config.Active),
	// the automatic overlay derived from the gap budget, and the rolling
	// per-database silent-tick accounting behind it.
	userActive  []bool
	autoDown    []bool
	silentHist  [][]bool // ring of per-tick silent flags, MaxWindow deep
	histIdx     int
	histFilled  int
	silentCount []int // silent ticks per database within silentHist
	cleanStreak []int // consecutive usable ticks per database
	silentTick  []bool
	effActive   []bool

	deactivations    int
	reactivations    int
	degradedVerdicts int
	skippedRounds    int

	// shadow, when non-nil, is a candidate threshold set being compared
	// against the live one on every resolved round (see shadow.go).
	shadow *shadowState

	// persister, when set, receives durable-state hooks (see persist.go).
	persister Persister

	// win is the judged window, copied from the rings on every judgment
	// and sized for the largest one; allocated on the first judgment.
	win *timeseries.UnitSeries

	// judge is the scratch every judgment runs on; evidence holds the
	// judgment that decided last, the newest verdict judged since start.
	// The two swap when a round resolves, so keeping a round's evidence
	// costs no allocation and a shadow pass on judge cannot touch it.
	judge, evidence *detect.JudgeScratch
	last            *Verdict
}

// NewOnline builds a streaming judge for the given shape. The processor's
// ring capacity is derived from the flex config's worst-case expansion
// sequence, so a live round's window start can never be evicted.
func NewOnline(cfg detect.Config, kpis, dbs int) (*Online, error) {
	if cfg.Flex == (window.FlexConfig{}) {
		cfg.Flex = window.DefaultFlexConfig()
	}
	if err := cfg.Flex.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Thresholds.Validate(kpis); err != nil {
		return nil, err
	}
	flex, err := window.NewFlex(cfg.Flex)
	if err != nil {
		return nil, err
	}
	o := &Online{
		cfg: cfg,
		// One engine for the judge's lifetime: its scratch free list makes the
		// steady-state per-tick correlation pass allocation-lean.
		engine:   cfg.Engine(),
		proc:     NewProcessor(kpis, dbs, cfg.Flex.MaxWindow()),
		flex:     flex,
		judge:    detect.NewEvidenceScratch(),
		evidence: detect.NewEvidenceScratch(),
	}
	if cfg.Active != nil {
		if len(cfg.Active) != dbs {
			return nil, fmt.Errorf("monitor: active mask has %d entries for %d databases", len(cfg.Active), dbs)
		}
		o.userActive = append([]bool(nil), cfg.Active...)
	}
	o.initDegraded(dbs)
	return o, nil
}

func (o *Online) initDegraded(dbs int) {
	o.autoDown = make([]bool, dbs)
	o.silentHist = make([][]bool, o.cfg.Flex.MaxWindow())
	for i := range o.silentHist {
		o.silentHist[i] = make([]bool, dbs)
	}
	o.histIdx = 0
	o.histFilled = 0
	o.silentCount = make([]int, dbs)
	o.cleanStreak = make([]int, dbs)
	o.silentTick = make([]bool, dbs)
	o.effActive = make([]bool, dbs)
}

// Processor exposes the underlying queues (for inspection endpoints).
func (o *Online) Processor() *Processor { return o.proc }

// Thresholds returns the active judgment thresholds.
func (o *Online) Thresholds() window.Thresholds {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cfg.Thresholds.Clone()
}

// Health snapshots the degraded-mode counters.
func (o *Online) Health() HealthStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	gapCells, missed := o.proc.GapStats()
	return HealthStats{
		GapCells:         gapCells,
		MissedTicks:      missed,
		Deactivations:    o.deactivations,
		Reactivations:    o.reactivations,
		DegradedVerdicts: o.degradedVerdicts,
		SkippedRounds:    o.skippedRounds,
		AutoDeactivated:  append([]bool(nil), o.autoDown...),
		SilentRecent:     append([]int(nil), o.silentCount...),
	}
}

// Explain returns the newest verdict judged since the judge was built or
// restored, with one explanation per database read from the evidence that
// decided it: each state is the verdict's final state, and the findings
// are the levels and best peer scores the judgment computed, under the
// round's own primary, active mask and thresholds. Both are nil before the
// first judged round (evidence is not persisted); a skipped round leaves
// the previous judged verdict in place.
func (o *Online) Explain() (*Verdict, []*detect.Explanation) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.last == nil {
		return nil, nil
	}
	return o.last, o.evidence.Explain(o.last.States)
}

// SetPrimary follows a failover: R-R-typed KPIs are judged among replicas
// only, so the detector must know which database is currently primary.
func (o *Online) SetPrimary(db int) error {
	_, dbs := o.proc.Shape()
	if db < 0 || db >= dbs {
		return fmt.Errorf("monitor: primary %d out of %d databases", db, dbs)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cfg.Primary = db
	return nil
}

// SetThresholds swaps the judgment thresholds (used by the online feedback
// module after retraining).
func (o *Online) SetThresholds(t window.Thresholds) error {
	kpis, _ := o.proc.Shape()
	if err := t.Validate(kpis); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.setThresholdsLocked(t)
}

func (o *Online) setThresholdsLocked(t window.Thresholds) error {
	o.cfg.Thresholds = t.Clone()
	if o.persister != nil {
		// Persist under the same mutex that guards Push: the durable
		// order of threshold records matches the order rounds saw them.
		o.persister.PersistThresholds(o.cfg.Thresholds.Clone(), PersistContext{o})
	}
	return nil
}

// recordTick folds one tick's per-database silent flags into the rolling
// budget accounting and flips the automatic activation overlay.
func (o *Online) recordTick(silent []bool) {
	_, dbs := o.proc.Shape()
	slot := o.silentHist[o.histIdx]
	for d := 0; d < dbs; d++ {
		if o.histFilled == len(o.silentHist) && slot[d] {
			o.silentCount[d]--
		}
		slot[d] = silent[d]
		if silent[d] {
			o.silentCount[d]++
			o.cleanStreak[d] = 0
		} else {
			o.cleanStreak[d]++
		}
	}
	o.histIdx = (o.histIdx + 1) % len(o.silentHist)
	if o.histFilled < len(o.silentHist) {
		o.histFilled++
	}
	budget := gapBudget * float64(len(o.silentHist))
	for d := 0; d < dbs; d++ {
		switch {
		case !o.autoDown[d] && float64(o.silentCount[d]) > budget:
			o.autoDown[d] = true
			o.deactivations++
		// Re-activation needs the budget back under threshold too: right
		// after an outage the rolling window still holds the old silent
		// ticks, and a clean streak alone would flap deactivate/reactivate
		// until they age out.
		case o.autoDown[d] && o.cleanStreak[d] >= o.cfg.Flex.Initial &&
			float64(o.silentCount[d]) <= budget:
			o.autoDown[d] = false
			o.reactivations++
		}
	}
}

// effectiveActive merges the user mask with the automatic overlay. It
// returns nil (all active) when neither masks anything; the returned slice
// is a reused scratch valid until the next call.
func (o *Online) effectiveActive() []bool {
	masked := false
	for d := range o.effActive {
		a := (o.userActive == nil || o.userActive[d]) && !o.autoDown[d]
		o.effActive[d] = a
		if !a {
			masked = true
		}
	}
	if !masked {
		return nil
	}
	return o.effActive
}

func countActive(active []bool, dbs int) int {
	if active == nil {
		return dbs
	}
	n := 0
	for _, a := range active {
		if a {
			n++
		}
	}
	return n
}

// skipVerdict emits a HealthSkipped verdict covering [start, start+size)
// and resets the round machinery.
func (o *Online) skipVerdict(start, size int) *Verdict {
	v := &Verdict{Tick: o.proc.Ticks(), MeanCorr: math.NaN()}
	v.Start = start
	v.Size = size
	v.AbnormalDB = -1
	v.Expansions = o.expansions
	v.Health = detect.HealthSkipped
	o.flex.Reset()
	o.expansions = 0
	o.skippedRounds++
	return v
}

// Push ingests one collection tick and, if enough points have accumulated
// to finish the current judgment round, returns its verdict (nil
// otherwise). A nil sample records a wholly-missed collection tick.
//
// Push never wedges: when a collector outage evicts the current round's
// window start, the round is abandoned with a HealthSkipped verdict
// covering the lost range and detection resynchronizes to the oldest
// retained tick; when too few databases remain active to correlate, the
// round is likewise skipped and the stream advances.
func (o *Online) Push(sample [][]float64) (*Verdict, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, err := o.pushLocked(sample)
	if v != nil && o.persister != nil {
		o.persister.PersistVerdict(v, PersistContext{o})
	}
	return v, err
}

func (o *Online) pushLocked(sample [][]float64) (*Verdict, error) {
	if _, err := o.proc.IngestDegraded(sample, o.silentTick); err != nil {
		return nil, err
	}
	o.recordTick(o.silentTick)
	// Self-heal: a round whose window start fell off the rings (e.g. the
	// feeder outpaced a stalled judge, or ingestion bypassed Push) can
	// never be judged; skip the lost range and resynchronize. The new
	// round starts one past the oldest retained tick: once the rings are
	// full, eviction advances one tick per push, so resyncing to exactly
	// the oldest tick would lose the race and skip forever.
	if oldest := o.proc.Oldest(); o.roundStart < oldest {
		newStart := oldest + 1
		v := o.skipVerdict(o.roundStart, newStart-o.roundStart)
		o.roundStart = newStart
		return v, nil
	}
	size := o.flex.Size()
	if o.proc.Ticks() < o.roundStart+size {
		return nil, nil // detection task blocked until the window fills
	}
	kpis, dbs := o.proc.Shape()
	active := o.effectiveActive()
	if countActive(active, dbs) < 2 {
		// Correlation-based judgment needs at least one peer pair.
		v := o.skipVerdict(o.roundStart, size)
		o.roundStart += size
		return v, nil
	}
	if o.win == nil {
		o.win = newWindowSeries(kpis, dbs, o.cfg.Flex.MaxWindow())
	}
	_, gaps, err := o.proc.readWindow(o.win, o.roundStart, size, nil)
	if err != nil {
		return nil, err
	}
	mats, err := o.engine.BuildMatrices(o.win, 0, size, active)
	if err != nil {
		return nil, err
	}
	cfg := o.cfg
	cfg.Active = active
	states := o.judge.Judge(mats, cfg, kpis, dbs)
	round := detect.RoundState(states)
	_, done := o.flex.Resolve(round)
	if !done {
		o.expansions++
		return nil, nil // window expanded; wait for Δ more points
	}
	v := &Verdict{
		Verdict:  detect.BuildVerdict(o.roundStart, size, states, cfg, o.expansions, round == window.Observable),
		Tick:     o.proc.Ticks(),
		GapCells: gaps,
		MeanCorr: meanPairScore(mats, active),
	}
	o.judge, o.evidence, o.last = o.evidence, o.judge, v
	o.observeShadow(mats, v.States, cfg, kpis, dbs)
	if gaps > 0 || anyTrue(o.autoDown) {
		v.Health = detect.HealthDegraded
		o.degradedVerdicts++
	}
	o.roundStart += size
	o.flex.Reset()
	o.expansions = 0
	return v, nil
}

func anyTrue(v []bool) bool {
	for _, b := range v {
		if b {
			return true
		}
	}
	return false
}
