// Package detect implements DBCatcher's streaming detection module
// (§III-A): it consumes a unit's multivariate KPI series window by window,
// computes per-KPI correlation matrices, maps them to correlation levels,
// determines each database's state, and drives the flexible time window
// when the verdict is "observable".
package detect

import (
	"fmt"
	"sync"
	"time"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/metrics"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/window"
)

// Config parameterizes a detection pass.
type Config struct {
	// Thresholds is the judgment parameter set (α_i, θ, tolerance).
	Thresholds window.Thresholds
	// Flex configures the flexible time window; zero value means
	// window.DefaultFlexConfig().
	Flex window.FlexConfig
	// Measure is the pairwise correlation measure; nil means KCD with
	// detection-default options (the allocation-lean engine path). A
	// non-nil measure must be safe for concurrent use unless Workers is 1.
	Measure correlate.Measure
	// KCDOptions overrides the KCD configuration used when Measure is
	// nil. The pointer distinguishes "unset" from an explicit zero-valued
	// override.
	KCDOptions *correlate.Options
	// Workers bounds the correlation fan-out per window: 0 uses
	// GOMAXPROCS, 1 forces the serial path. Results are identical at any
	// setting; callers that already parallelize across units (the fleet
	// runner) pin this to 1 to avoid nested pools.
	Workers int
	// Active marks databases that participate; nil means all.
	Active []bool
	// Primary is the index of the unit's primary database. KPIs whose
	// Table II correlation type is R-R are only judged among replicas:
	// the primary is neither scored on them nor used as a peer for them.
	// The default 0 matches the simulator's layout; set -1 when the unit
	// has no primary (all-replica read pool).
	Primary int
}

func (c Config) withDefaults() Config {
	if c.Flex == (window.FlexConfig{}) {
		c.Flex = window.DefaultFlexConfig()
	}
	return c
}

// Engine materializes the correlation engine the configuration describes:
// a custom measure when set, otherwise the allocation-lean KCD engine with
// the configured (or detection-default) options, sized by Workers.
func (c Config) Engine() *correlate.Engine {
	if c.Measure != nil {
		return correlate.NewMeasureEngine(c.Measure, c.Workers)
	}
	if c.KCDOptions != nil {
		return correlate.NewEngine(*c.KCDOptions, c.Workers)
	}
	return correlate.NewEngine(correlate.DetectionOptions(), c.Workers)
}

// Health qualifies how trustworthy a verdict is under lossy collection.
// Offline passes over complete series always emit HealthOK; the online
// monitor downgrades rounds whose input was damaged.
type Health int

const (
	// HealthOK: the round judged a complete window.
	HealthOK Health = iota
	// HealthDegraded: the round was judged, but some input points were
	// collector gaps (repaired by interpolation) or databases were
	// auto-deactivated for exceeding their gap budget.
	HealthDegraded
	// HealthSkipped: the round could not be judged at all — its window was
	// evicted during a collector outage, or too few databases remained
	// active to correlate. The covered range carries no judgment.
	HealthSkipped
)

// String names the health.
func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthSkipped:
		return "skipped"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// Verdict is the outcome of one judgment round: the window it covered and
// the final per-database states.
type Verdict struct {
	// Start is the first tick of the window; Size its final length after
	// any expansions.
	Start, Size int
	// States holds each database's terminal state (Healthy or Abnormal).
	States []window.State
	// Abnormal reports whether any database ended Abnormal.
	Abnormal bool
	// AbnormalDB is the lowest-indexed abnormal database, or -1.
	AbnormalDB int
	// Expansions counts how often the window grew during the round.
	Expansions int
	// Health qualifies the verdict under lossy collection (always
	// HealthOK for offline passes over complete series).
	Health Health
}

// Timing splits the cost of a pass between the correlation measurement and
// the window observation logic (§IV-D4 reports this 70/30).
type Timing struct {
	Correlation time.Duration
	Window      time.Duration
}

// Total returns the summed duration.
func (t Timing) Total() time.Duration { return t.Correlation + t.Window }

// MatrixProvider supplies the Q correlation matrices for a window. The
// indirection lets the adaptive threshold learner memoize matrices across
// fitness evaluations: scores do not depend on thresholds.
type MatrixProvider interface {
	// Matrices returns the per-KPI correlation matrices for the window
	// [start, start+size).
	Matrices(start, size int) ([]*correlate.Matrix, error)
	// Shape returns the number of ticks, KPIs, and databases.
	Shape() (ticks, kpis, databases int)
}

// seriesProvider computes matrices directly from a UnitSeries through a
// reusable correlation engine.
type seriesProvider struct {
	u      *timeseries.UnitSeries
	engine *correlate.Engine
	active []bool
}

// NewProvider wraps a unit series into an uncached MatrixProvider. A nil
// measure selects the allocation-lean KCD engine with detection defaults;
// a non-nil measure must be safe for concurrent use (the build fans out
// over GOMAXPROCS workers — use NewEngineProvider to bound it).
func NewProvider(u *timeseries.UnitSeries, measure correlate.Measure, active []bool) MatrixProvider {
	return NewEngineProvider(u, Config{Measure: measure}.Engine(), active)
}

// NewEngineProvider wraps a unit series and an explicit correlation engine
// into an uncached MatrixProvider.
func NewEngineProvider(u *timeseries.UnitSeries, engine *correlate.Engine, active []bool) MatrixProvider {
	return &seriesProvider{u: u, engine: engine, active: active}
}

func (p *seriesProvider) Matrices(start, size int) ([]*correlate.Matrix, error) {
	return p.engine.BuildMatrices(p.u, start, size, p.active)
}

func (p *seriesProvider) Shape() (int, int, int) {
	return p.u.Len(), p.u.KPIs, p.u.Databases
}

// DefaultCacheEntries bounds CachedProvider's memoization map. One entry
// holds one window's Q matrices (~Q·N²/2 floats); 512 covers every window
// the flexible policy can visit on multi-hour series while keeping the
// worst case a few megabytes even at fleet scale.
const DefaultCacheEntries = 512

// CachedProvider memoizes another provider's matrices by (start, size),
// bounded to a maximum entry count with oldest-first eviction (the GA
// re-visits the same windows every generation, so recency hardly matters —
// what matters is that long series cannot grow the map without limit). It
// is safe for concurrent use; the parallel threshold searchers share one
// per labelled unit.
type CachedProvider struct {
	inner MatrixProvider
	mu    sync.Mutex
	cache map[[2]int][]*correlate.Matrix
	order [][2]int // insertion order, for FIFO eviction
	max   int
	// Hits and Misses instrument cache effectiveness. Read them only once
	// concurrent use has quiesced.
	Hits, Misses int
}

// NewCachedProvider wraps inner with memoization bounded to
// DefaultCacheEntries.
func NewCachedProvider(inner MatrixProvider) *CachedProvider {
	return NewCachedProviderSize(inner, DefaultCacheEntries)
}

// NewCachedProviderSize is NewCachedProvider with an explicit entry cap;
// maxEntries <= 0 falls back to DefaultCacheEntries.
func NewCachedProviderSize(inner MatrixProvider, maxEntries int) *CachedProvider {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &CachedProvider{
		inner: inner,
		cache: make(map[[2]int][]*correlate.Matrix),
		max:   maxEntries,
	}
}

// Matrices implements MatrixProvider. Concurrent misses on the same key
// may compute the matrices twice; both results are identical and only one
// is retained.
func (c *CachedProvider) Matrices(start, size int) ([]*correlate.Matrix, error) {
	key := [2]int{start, size}
	c.mu.Lock()
	if m, ok := c.cache[key]; ok {
		c.Hits++
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	// Compute outside the lock so parallel fitness evaluations overlap.
	m, err := c.inner.Matrices(start, size)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.Misses++
	if _, ok := c.cache[key]; !ok {
		if len(c.cache) >= c.max {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.cache, oldest)
		}
		c.cache[key] = m
		c.order = append(c.order, key)
	}
	c.mu.Unlock()
	return m, nil
}

// Len returns the number of cached windows.
func (c *CachedProvider) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// Shape implements MatrixProvider.
func (c *CachedProvider) Shape() (int, int, int) { return c.inner.Shape() }

// Run performs an offline detection pass over the unit's full series and
// returns the sequence of verdicts. Consecutive rounds consume
// non-overlapping windows; a trailing stretch shorter than the initial
// window is left unjudged (the detection task blocks until enough points
// arrive, §IV-A3).
func Run(u *timeseries.UnitSeries, cfg Config) ([]Verdict, *Timing, error) {
	cfg = cfg.withDefaults()
	return RunProvider(NewEngineProvider(u, cfg.Engine(), cfg.Active), cfg)
}

// RunProvider is Run against an arbitrary matrix source.
func RunProvider(p MatrixProvider, cfg Config) ([]Verdict, *Timing, error) {
	cfg = cfg.withDefaults()
	ticks, kpis, dbs := p.Shape()
	if err := cfg.Thresholds.Validate(kpis); err != nil {
		return nil, nil, err
	}
	if err := cfg.Flex.Validate(); err != nil {
		return nil, nil, err
	}
	flex, err := window.NewFlex(cfg.Flex)
	if err != nil {
		return nil, nil, err
	}
	// One judgment scratch and flex tracker per pass: the GA's fitness
	// evaluations run thousands of passes, so per-round buffers must not
	// be reallocated, and nothing reads this pass's evidence.
	js := &JudgeScratch{}
	verdicts := make([]Verdict, 0, ticks/cfg.Flex.Initial+1)
	timing := &Timing{}
	cursor := 0
	for cursor+cfg.Flex.Initial <= ticks {
		v, err := judgeRound(p, cfg, cursor, ticks, kpis, dbs, timing, flex, js)
		if err != nil {
			return nil, nil, err
		}
		verdicts = append(verdicts, v)
		cursor += v.Size
	}
	return verdicts, timing, nil
}

// judgeRound runs one flexible-window judgment starting at cursor.
func judgeRound(p MatrixProvider, cfg Config, cursor, ticks, kpis, dbs int, timing *Timing, flex *window.Flex, js *JudgeScratch) (Verdict, error) {
	flex.Reset()
	var expansions int
	for {
		size := flex.Size()
		if cursor+size > ticks {
			// Not enough data to expand further: re-judge at the previous
			// size and resolve as if the window budget were exhausted.
			size = flex.Size() - cfg.Flex.Initial
			return finalizeAtSize(p, cfg, cursor, size, expansions, timing, js)
		}
		t0 := time.Now()
		mats, err := p.Matrices(cursor, size)
		if err != nil {
			return Verdict{}, err
		}
		timing.Correlation += time.Since(t0)

		t1 := time.Now()
		states := js.Judge(mats, cfg, kpis, dbs)
		round := roundState(states)
		_, done := flex.Resolve(round)
		timing.Window += time.Since(t1)
		if done {
			// A round that ends still observable exhausted its window
			// budget, unless expansion is disabled, which
			// finalizeStates resolves Healthy.
			return BuildVerdict(cursor, size, states, cfg, expansions, round == window.Observable), nil
		}
		expansions++
	}
}

// finalizeAtSize re-computes the judgment at the given size and forces a
// terminal verdict (used when the series ends mid-expansion).
func finalizeAtSize(p MatrixProvider, cfg Config, cursor, size, expansions int, timing *Timing, js *JudgeScratch) (Verdict, error) {
	_, kpis, dbs := p.Shape()
	t0 := time.Now()
	mats, err := p.Matrices(cursor, size)
	if err != nil {
		return Verdict{}, err
	}
	timing.Correlation += time.Since(t0)
	t1 := time.Now()
	states := js.Judge(mats, cfg, kpis, dbs)
	timing.Window += time.Since(t1)
	return BuildVerdict(cursor, size, states, cfg, expansions, true), nil
}

// JudgeScratch holds the reusable buffers of a judgment step (per-database
// states, per-KPI levels, peer-score staging), so steady-state judging
// allocates nothing. A scratch from NewEvidenceScratch also keeps the
// evidence of its latest judgment (see Explain). Not safe for concurrent
// use; hold one per goroutine.
type JudgeScratch struct {
	states []window.State
	levels []window.Level
	peers  []float64
	// record turns on evidence: cells[d*kpis+k] is database d's finding on
	// KPI k. A cell the judgment skipped (an inactive database, an R-R KPI
	// on the primary) has a zero Level.
	record bool
	kpis   int
	cells  []KPIFinding
}

// NewEvidenceScratch returns a scratch that records each judgment's
// evidence. Passes nobody explains (RunProvider, the threshold search's
// thousands of fitness passes) use a plain JudgeScratch and pay nothing
// for it.
func NewEvidenceScratch() *JudgeScratch { return &JudgeScratch{record: true} }

// Judge maps a window's correlation matrices to tentative per-database
// states (Algorithm 1 + Fig. 7), honouring each KPI's Table II correlation
// type: an R-R KPI is only judged among replicas. The returned slice is
// the scratch's internal buffer, valid until the next call.
func (js *JudgeScratch) Judge(mats []*correlate.Matrix, cfg Config, kpis, dbs int) []window.State {
	if cap(js.states) < dbs {
		js.states = make([]window.State, dbs)
	}
	states := js.states[:dbs]
	if js.record {
		if cap(js.cells) < kpis*dbs {
			js.cells = make([]KPIFinding, kpis*dbs)
		}
		js.kpis, js.cells = kpis, js.cells[:kpis*dbs]
		clear(js.cells)
	}
	levels := js.levels[:0]
	for d := 0; d < dbs; d++ {
		if cfg.Active != nil && !cfg.Active[d] {
			// An unused database does not participate (§III-C).
			states[d] = window.Healthy
			continue
		}
		levels = levels[:0]
		for k := 0; k < kpis; k++ {
			rrOnly := isRROnly(k, kpis)
			if rrOnly && d == cfg.Primary {
				// The primary is not expected to correlate on this KPI.
				continue
			}
			js.peers = peerScoresInto(js.peers[:0], mats[k], d, cfg, rrOnly)
			level := window.KPILevel(js.peers, cfg.Thresholds.Alpha[k], cfg.Thresholds.Theta)
			levels = append(levels, level)
			if js.record {
				js.cells[d*kpis+k] = KPIFinding{KPI: kpi.KPI(k), Level: level, BestScore: bestScore(js.peers)}
			}
		}
		states[d] = window.DetermineState(levels, cfg.Thresholds.MaxTolerance)
	}
	js.levels = levels[:0]
	return states
}

// bestScore is the highest peer score, or -2 (below any score) when the
// database has no peer.
func bestScore(scores []float64) float64 {
	best := -2.0
	for _, s := range scores {
		if s > best {
			best = s
		}
	}
	return best
}

// isRROnly reports whether KPI index k correlates replica-replica only.
// The Table II typing applies when the provider carries the standard 14
// KPIs; nonstandard layouts treat every KPI as fully correlated.
func isRROnly(k, kpis int) bool {
	if kpis != kpi.Count {
		return false
	}
	return kpi.KPI(k).Correlation() == kpi.RR
}

// peerScoresInto extracts database d's scores against the peers it is
// expected to correlate with, appending into the caller's buffer.
func peerScoresInto(out []float64, m *correlate.Matrix, d int, cfg Config, rrOnly bool) []float64 {
	for i := 0; i < m.N; i++ {
		if i == d {
			continue
		}
		if cfg.Active != nil && !cfg.Active[i] {
			continue
		}
		if rrOnly && i == cfg.Primary {
			continue
		}
		out = append(out, m.At(i, d))
	}
	return out
}

// roundState reduces per-database states into the round's tentative state:
// any abnormal database ends the round abnormal; otherwise any observable
// database keeps the round observable; otherwise the round is healthy.
func roundState(states []window.State) window.State {
	round := window.Healthy
	for _, s := range states {
		if s == window.Abnormal {
			return window.Abnormal
		}
		if s == window.Observable {
			round = window.Observable
		}
	}
	return round
}

// finalizeStates resolves any lingering Observable database states into
// terminals. Only when the window budget was exhausted does Observable
// escalate to Abnormal; when the round ended because another database
// turned Abnormal (or expansion is disabled), an unconfirmed Observable
// resolves to Healthy.
func finalizeStates(states []window.State, cfg window.FlexConfig, exhausted bool) []window.State {
	out := make([]window.State, len(states))
	for i, s := range states {
		if s == window.Observable {
			if exhausted && !cfg.Disabled {
				out[i] = window.Abnormal
			} else {
				out[i] = window.Healthy
			}
		} else {
			out[i] = s
		}
	}
	return out
}

// BuildVerdict resolves lingering Observable database states via the flex
// policy (exhaustion or disabled-expansion semantics) and assembles the
// round's verdict.
func BuildVerdict(start, size int, states []window.State, cfg Config, expansions int, exhausted bool) Verdict {
	finals := finalizeStates(states, cfg.Flex, exhausted)
	v := Verdict{Start: start, Size: size, States: finals, AbnormalDB: -1, Expansions: expansions}
	for d, s := range finals {
		if s == window.Abnormal {
			v.Abnormal = true
			if v.AbnormalDB == -1 {
				v.AbnormalDB = d
			}
		}
	}
	return v
}

// Evaluate scores verdicts against ground truth: a window counts as
// actually abnormal when any tick inside it is labelled abnormal (§IV-A3
// evaluates per time window).
func Evaluate(verdicts []Verdict, labels *anomaly.Labels) (metrics.Confusion, error) {
	var c metrics.Confusion
	for _, v := range verdicts {
		if v.Start < 0 || v.Start+v.Size > len(labels.Point) {
			return c, fmt.Errorf("detect: verdict [%d, %d) outside %d labels", v.Start, v.Start+v.Size, len(labels.Point))
		}
		actual := false
		for t := v.Start; t < v.Start+v.Size; t++ {
			if labels.Point[t] {
				actual = true
				break
			}
		}
		c.Add(v.Abnormal, actual)
	}
	return c, nil
}

// DiagnosisAccuracy reports how often the flagged database matches the
// labelled abnormal database, over true-positive windows.
func DiagnosisAccuracy(verdicts []Verdict, labels *anomaly.Labels) float64 {
	correct, total := 0, 0
	for _, v := range verdicts {
		if !v.Abnormal {
			continue
		}
		truth := -1
		for t := v.Start; t < v.Start+v.Size && t < len(labels.Point); t++ {
			if labels.DB[t] >= 0 {
				truth = labels.DB[t]
				break
			}
		}
		if truth == -1 {
			continue // false positive; not a diagnosis case
		}
		total++
		if v.AbnormalDB == truth {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// RoundState exposes the per-round reduction of database states.
func RoundState(states []window.State) window.State { return roundState(states) }

// FinalizeStates exposes terminal-state resolution for streaming callers.
func FinalizeStates(states []window.State, cfg window.FlexConfig, exhausted bool) []window.State {
	return finalizeStates(states, cfg, exhausted)
}
