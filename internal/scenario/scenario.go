// Package scenario scripts the hostile-scenario matrix: deterministic,
// labelled failure stories a cloud unit actually lives through — noisy
// neighbors, failover storms, rolling restarts, network partitions, and
// slow-burn cascades. Each scenario composes the existing vocabulary
// (anomaly episodes for what the databases *do*, workload.FaultPlan for
// what the collectors *lose*, cluster failovers for role churn) into one
// unit stream with ground truth attached, and the runner pushes it through
// the same online judge the daemon runs. The point is to turn the chaos
// tests' "we don't crash" into "we still detect, and here is the score":
// per-scenario precision/recall/F-measure, reproducible from a seed.
package scenario

import (
	"fmt"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/metrics"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// Config shapes a scenario run. Zero fields take the documented defaults.
type Config struct {
	// Ticks is the stream length. Default 800; scenarios place their
	// episodes at fixed fractions of it, so any length from minTicks up
	// tells the same story.
	Ticks int
	// Workers bounds the judge's correlation pool (verdicts are identical
	// at any setting). Default 1.
	Workers int
}

const (
	// minTicks keeps every scripted episode longer than the judge's
	// minimum window even at smoke scale.
	minTicks = 400
	// databases is the unit width; the matrix scripts need at least 4.
	databases = 5
)

func (c Config) withDefaults() Config {
	if c.Ticks <= 0 {
		c.Ticks = 800
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Ticks < minTicks {
		return fmt.Errorf("scenario: %d ticks; episodes need at least %d", c.Ticks, minTicks)
	}
	return nil
}

// Promotion schedules a detector primary handoff, mirroring a failover the
// series itself encodes.
type Promotion struct {
	Tick       int
	NewPrimary int
}

// Setup is one materialized scenario: the distorted series, what the
// collectors lose on top, the role churn the detector must follow, and the
// ground truth everything is scored against.
type Setup struct {
	Series     *timeseries.UnitSeries
	Labels     *anomaly.Labels
	Plan       workload.FaultPlan
	Promotions []Promotion
}

// Scenario is one scripted failure story.
type Scenario struct {
	// Name is the registry key and table row label.
	Name string
	// Truth states what the labels assert — what must be flagged and,
	// just as important, what must not.
	Truth string
	build func(cfg Config, seed uint64) (*Setup, error)
}

// Result is a scenario's scored outcome.
type Result struct {
	Name      string
	Confusion metrics.Confusion
	// Verdicts counts judged windows; Degraded and Skipped count the
	// rounds the collection faults downgraded.
	Verdicts int
	Degraded int
	Skipped  int
}

// All returns the hostile-scenario matrix in fixed order.
func All() []Scenario {
	return []Scenario{
		{
			Name:  "noisy-neighbor",
			Truth: "recurring multi-tenant contention on one database is flagged; quiet stretches are not",
			build: buildNoisyNeighbor,
		},
		{
			Name:  "failover-storm",
			Truth: "anomalies around a mid-window primary promotion are flagged; the promotion itself is not",
			build: buildFailoverStorm,
		},
		{
			Name:  "rolling-restart",
			Truth: "a restart wave silencing one collector at a time raises no false alarms; the real stall is still caught",
			build: buildRollingRestart,
		},
		{
			Name:  "network-partition",
			Truth: "a partition silencing two of the unit's exporters degrades ingestion without false alarms; anomalies outside it are caught",
			build: buildNetworkPartition,
		},
		{
			Name:  "slow-burn-cascade",
			Truth: "a low-magnitude drift that escalates into a stall is flagged through every stage",
			build: buildSlowBurn,
		},
	}
}

// Build materializes the scenario deterministically from the seed.
func (s Scenario) Build(cfg Config, seed uint64) (*Setup, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return s.build(cfg, seed)
}

// Run materializes the scenario and streams it through the online judge —
// collector (with the scenario's fault plan) feeding monitor.Online tick by
// tick, promotions applied at their scheduled ticks — and scores the
// verdict stream against the ground truth.
func (s Scenario) Run(cfg Config, seed uint64) (Result, error) {
	cfg = cfg.withDefaults()
	setup, err := s.Build(cfg, seed)
	if err != nil {
		return Result{}, err
	}
	judge, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Workers:    cfg.Workers,
	}, kpi.Count, setup.Series.Databases)
	if err != nil {
		return Result{}, err
	}
	col, err := cluster.NewCollector(setup.Series, setup.Plan)
	if err != nil {
		return Result{}, err
	}
	res := Result{Name: s.Name}
	var verdicts []detect.Verdict
	for tick := 0; ; tick++ {
		for _, p := range setup.Promotions {
			if p.Tick == tick {
				if err := judge.SetPrimary(p.NewPrimary); err != nil {
					return Result{}, err
				}
			}
		}
		sample, ok := col.Next()
		if !ok {
			break
		}
		v, err := judge.Push(sample)
		if err != nil {
			return Result{}, err
		}
		if v == nil {
			continue
		}
		verdicts = append(verdicts, v.Verdict)
		switch v.Health {
		case detect.HealthDegraded:
			res.Degraded++
		case detect.HealthSkipped:
			res.Skipped++
		}
	}
	res.Verdicts = len(verdicts)
	res.Confusion, err = detect.Evaluate(verdicts, setup.Labels)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// simulate builds the baseline healthy unit every scenario distorts.
func simulate(cfg Config, seed uint64, fo *cluster.Failover) (*cluster.Unit, error) {
	return cluster.Simulate(cluster.Config{
		Name:      "scenario",
		Databases: databases,
		Ticks:     cfg.Ticks,
		Seed:      seed,
		Profile:   workload.TencentIrregular,
		Failover:  fo,
	})
}

// at places an episode at a fixed fraction of the run so every scale tells
// the same story.
func at(cfg Config, frac float64) int { return int(frac * float64(cfg.Ticks)) }

// span sizes an episode as a fraction of the run, floored so it stays
// individually observable at smoke scale.
func span(cfg Config, frac float64) int {
	n := int(frac * float64(cfg.Ticks))
	if n < 12 {
		n = 12
	}
	return n
}

// inject applies the events and returns the resulting ground truth.
func inject(u *cluster.Unit, events []anomaly.Event, seed uint64) (*Setup, error) {
	labels, err := anomaly.Inject(u, events, mathx.NewRNG(seed).Split(0x5ce0))
	if err != nil {
		return nil, err
	}
	return &Setup{Series: u.Series, Labels: labels}, nil
}

// buildNoisyNeighbor scripts multi-tenant contention: a co-located tenant
// keeps stealing CPU and buffer pool from one database in recurring bursts
// (resource-hog episodes), while the rest of the unit keeps tracking the
// shared demand.
func buildNoisyNeighbor(cfg Config, seed uint64) (*Setup, error) {
	u, err := simulate(cfg, seed, nil)
	if err != nil {
		return nil, err
	}
	victim := 3
	return inject(u, []anomaly.Event{
		{Type: anomaly.ResourceHog, DB: victim, Start: at(cfg, 0.15), Length: span(cfg, 0.030), Magnitude: 2.0},
		{Type: anomaly.ResourceHog, DB: victim, Start: at(cfg, 0.45), Length: span(cfg, 0.035), Magnitude: 2.4},
		{Type: anomaly.ResourceHog, DB: victim, Start: at(cfg, 0.75), Length: span(cfg, 0.030), Magnitude: 2.2},
	}, seed)
}

// buildFailoverStorm scripts a failover storm: a replica is promoted to
// primary mid-run while anomalies land on either side of the handoff. The
// promotion redistributes every database's load (the series encodes it) and
// the detector is told to follow — the promotion window itself must not be
// flagged, the surrounding anomalies must.
func buildFailoverStorm(cfg Config, seed uint64) (*Setup, error) {
	foTick := at(cfg, 0.5)
	newPrimary := 1
	u, err := simulate(cfg, seed, &cluster.Failover{Tick: foTick, NewPrimary: newPrimary})
	if err != nil {
		return nil, err
	}
	setup, err := inject(u, []anomaly.Event{
		{Type: anomaly.LevelShift, DB: 2, Start: at(cfg, 0.22), Length: span(cfg, 0.030), Magnitude: 1.4},
		// The storm: a spike opens minutes after the promotion, while the
		// unit is still resettling.
		{Type: anomaly.Spike, DB: 3, Start: at(cfg, 0.56), Length: span(cfg, 0.030), Magnitude: 2.2},
		{Type: anomaly.ResourceHog, DB: 2, Start: at(cfg, 0.8), Length: span(cfg, 0.030), Magnitude: 2.0},
	}, seed)
	if err != nil {
		return nil, err
	}
	setup.Promotions = []Promotion{{Tick: foTick, NewPrimary: newPrimary}}
	return setup, nil
}

// buildRollingRestart scripts a maintenance wave: each database's collection
// agent goes silent in turn (restarts are collector outages, not database
// anomalies), with one genuine stall hidden before the wave. The wave must
// not alarm; the stall must.
func buildRollingRestart(cfg Config, seed uint64) (*Setup, error) {
	u, err := simulate(cfg, seed, nil)
	if err != nil {
		return nil, err
	}
	setup, err := inject(u, []anomaly.Event{
		{Type: anomaly.Stall, DB: 1, Start: at(cfg, 0.15), Length: span(cfg, 0.030), Magnitude: 0.85},
		{Type: anomaly.ResourceHog, DB: 2, Start: at(cfg, 0.78), Length: span(cfg, 0.030), Magnitude: 2.2},
	}, seed)
	if err != nil {
		return nil, err
	}
	// One database at a time, strictly sequential: restart d begins when
	// restart d-1 ends.
	restart := span(cfg, 0.035)
	start := at(cfg, 0.35)
	for d := 0; d < u.Series.Databases; d++ {
		setup.Plan.Silences = append(setup.Plan.Silences, workload.Silence{
			DB: d, Start: start + d*restart, Length: restart,
		})
	}
	setup.Plan.Seed = seed + 17
	return setup, nil
}

// buildNetworkPartition scripts a switch failure splitting the unit's
// exporters: two databases go collectively dark for a sustained window.
// Ingestion must degrade (NaN columns, the gap budget may bench the dark
// databases) without raising false alarms, and anomalies on the still
// reachable side must be caught.
func buildNetworkPartition(cfg Config, seed uint64) (*Setup, error) {
	u, err := simulate(cfg, seed, nil)
	if err != nil {
		return nil, err
	}
	setup, err := inject(u, []anomaly.Event{
		{Type: anomaly.LevelShift, DB: 3, Start: at(cfg, 0.18), Length: span(cfg, 0.030), Magnitude: 1.5},
		{Type: anomaly.Spike, DB: 4, Start: at(cfg, 0.72), Length: span(cfg, 0.030), Magnitude: 2.4},
	}, seed)
	if err != nil {
		return nil, err
	}
	// The partition: databases 1 and 2 vanish together.
	cut := at(cfg, 0.42)
	length := span(cfg, 0.08)
	setup.Plan.Silences = []workload.Silence{
		{DB: 1, Start: cut, Length: length},
		{DB: 2, Start: cut, Length: length},
	}
	setup.Plan.Seed = seed + 23
	return setup, nil
}

// buildSlowBurn scripts a slow-burn cascade on one database: a
// low-magnitude concept drift (an index gone mildly wrong) escalates into a
// steeper drift (the optimizer chasing its tail) and finally a stall (the
// lock pileup). Every stage is labelled; the detector should follow the
// burn all the way down.
func buildSlowBurn(cfg Config, seed uint64) (*Setup, error) {
	u, err := simulate(cfg, seed, nil)
	if err != nil {
		return nil, err
	}
	victim := 1
	return inject(u, []anomaly.Event{
		{Type: anomaly.ConceptDrift, DB: victim, Start: at(cfg, 0.25), Length: span(cfg, 0.10), Magnitude: 0.8},
		{Type: anomaly.ConceptDrift, DB: victim, Start: at(cfg, 0.55), Length: span(cfg, 0.07), Magnitude: 1.6},
		{Type: anomaly.Stall, DB: victim, Start: at(cfg, 0.82), Length: span(cfg, 0.035), Magnitude: 0.9},
	}, seed)
}
