// Package dbcatcher is a Go reproduction of "DBCatcher: A Cloud Database
// Online Anomaly Detection System based on Indicator Correlation" (Zhang
// et al., ICDE 2023).
//
// DBCatcher watches the key performance indicators (KPIs) of every
// database in a cloud-database unit and exploits the Unit KPI Correlation
// (UKPIC) phenomenon: in a healthy unit the same KPI trends together
// across databases, so a database whose trends decorrelate from its peers
// is likely abnormal. Three techniques make this practical: a
// delay-tolerant correlation measure (KCD), a flexible observation window
// that absorbs benign temporal fluctuations, and a genetic-algorithm
// threshold learner driven by DBA feedback.
//
// This root package is the public facade. Construct a Detector for online
// (streaming) detection, or use DetectSeries for offline batch detection;
// LearnThresholds fits the judgment thresholds from labelled data. The
// internal packages provide the substrates (unit simulator, workload
// models, anomaly injectors, baseline detectors, experiment harness); the
// cmd/ binaries and examples/ show them in use.
package dbcatcher

import (
	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/dataset"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/thresholds"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// Re-exported domain types. The aliases keep the full method sets usable
// by package consumers.
type (
	// KPI identifies one of the 14 monitored indicators (Table II).
	KPI = kpi.KPI
	// Series is a uniformly sampled univariate KPI stream.
	Series = timeseries.Series
	// UnitSeries is the KPI x database multivariate layout of one unit.
	UnitSeries = timeseries.UnitSeries
	// Thresholds is the judgment parameter set (α_i, θ, tolerance).
	Thresholds = window.Thresholds
	// FlexConfig parameterizes the flexible observation window.
	FlexConfig = window.FlexConfig
	// State is a database state: Healthy, Observable, or Abnormal.
	State = window.State
	// Verdict is one completed judgment round.
	Verdict = detect.Verdict
	// OnlineVerdict is a verdict with streaming bookkeeping.
	OnlineVerdict = monitor.Verdict
	// Labels is ground truth for labelled series.
	Labels = anomaly.Labels
	// UnitConfig configures the built-in cloud-database unit simulator.
	UnitConfig = cluster.Config
	// Unit is a simulated cloud-database unit.
	Unit = cluster.Unit
	// WorkloadProfile selects a demand model (Tencent/Sysbench/TPCC,
	// irregular or periodic).
	WorkloadProfile = workload.Profile
	// DatasetConfig configures labelled multi-unit dataset generation.
	DatasetConfig = dataset.Config
	// Dataset is a labelled multi-unit dataset.
	Dataset = dataset.Dataset
)

// Database states.
const (
	Healthy    = window.Healthy
	Observable = window.Observable
	Abnormal   = window.Abnormal
)

// KPICount is the number of monitored indicators (the paper's Q = 14).
const KPICount = kpi.Count

// Config configures a Detector.
type Config struct {
	// Databases is the number of databases in the monitored unit.
	Databases int
	// Thresholds is the judgment parameter set; zero value uses defaults
	// (refine with LearnThresholds once labelled records exist).
	Thresholds Thresholds
	// Flex configures the flexible window; zero value uses W=20, W_M=60.
	Flex FlexConfig
	// KCD overrides the correlation options; the zero value uses the
	// detection defaults (n/2 scan capped at ±4 points) unless
	// UseCustomKCD is set.
	KCD correlate.Options
	// UseCustomKCD forces the KCD field to be honoured even when it is
	// the zero configuration (which would otherwise read as "unset").
	UseCustomKCD bool
	// Workers bounds the per-window correlation fan-out: 0 uses
	// GOMAXPROCS, 1 forces the serial path. Verdicts are identical at any
	// setting; set 1 when the caller already runs many units in parallel.
	Workers int
	// Active marks participating databases; nil means all.
	Active []bool
}

// thresholdsFor resolves the configured thresholds for a q-KPI unit,
// falling back to the defaults when none were set.
func thresholdsFor(t Thresholds, q int) Thresholds {
	if t.Alpha == nil {
		return window.DefaultThresholds(q)
	}
	return t
}

// kcdFor maps the facade's KCD override to the detection layer's pointer
// sentinel: nil selects the detection defaults.
func kcdFor(cfg Config) *correlate.Options {
	if cfg.UseCustomKCD || !cfg.KCD.IsZero() {
		o := cfg.KCD
		return &o
	}
	return nil
}

// detectConfig lowers the facade configuration to the detection layer's
// for a q-KPI unit.
func detectConfig(cfg Config, q int) detect.Config {
	return detect.Config{
		Thresholds: thresholdsFor(cfg.Thresholds, q),
		Flex:       cfg.Flex,
		KCDOptions: kcdFor(cfg),
		Workers:    cfg.Workers,
		Active:     cfg.Active,
	}
}

// Detector is the online streaming detector: push one KPI sample per
// 5-second tick, receive a verdict whenever a judgment round completes.
type Detector struct {
	online *monitor.Online
}

// NewDetector builds a streaming detector for a unit with the given
// number of databases.
func NewDetector(cfg Config) (*Detector, error) {
	if cfg.Databases == 0 {
		cfg.Databases = 5
	}
	online, err := monitor.NewOnline(detectConfig(cfg, KPICount), KPICount, cfg.Databases)
	if err != nil {
		return nil, err
	}
	return &Detector{online: online}, nil
}

// Push ingests one collection tick: sample[k][d] is KPI k's value on
// database d. It returns a verdict when a judgment round completes, nil
// otherwise.
func (d *Detector) Push(sample [][]float64) (*OnlineVerdict, error) {
	return d.online.Push(sample)
}

// Thresholds returns the active judgment thresholds.
func (d *Detector) Thresholds() Thresholds { return d.online.Thresholds() }

// SetThresholds swaps the judgment thresholds (after relearning).
func (d *Detector) SetThresholds(t Thresholds) error { return d.online.SetThresholds(t) }

// DetectSeries runs offline batch detection over a complete unit series
// and returns the verdict sequence.
func DetectSeries(u *UnitSeries, cfg Config) ([]Verdict, error) {
	verdicts, _, err := detect.Run(u, detectConfig(cfg, u.KPIs))
	return verdicts, err
}

// KCD computes the Key Correlation Distance between two equal-length KPI
// windows with the detection-default options.
func KCD(x, y []float64) float64 {
	return correlate.KCD(x, y, correlate.DetectionOptions())
}

// LabelledUnit pairs a unit's series with DBA-marked ground truth for
// threshold learning.
type LabelledUnit struct {
	Series *UnitSeries
	Labels *Labels
}

// LearnThresholds runs the adaptive threshold learning policy (genetic
// algorithm, Algorithm 2) over labelled units and returns the fitted
// thresholds with their training F-Measure.
func LearnThresholds(units []LabelledUnit, flex FlexConfig, seed uint64) (Thresholds, float64, error) {
	samples := make([]thresholds.Sample, 0, len(units))
	q := KPICount
	for _, u := range units {
		q = u.Series.KPIs
		samples = append(samples, thresholds.Sample{
			Provider: detect.NewCachedProvider(detect.NewProvider(u.Series, nil, nil)),
			Labels:   u.Labels,
		})
	}
	learner := feedback.Learner{Searcher: thresholds.GA{Seed: seed}, Flex: flex}
	return learner.Relearn(q, samples)
}

// SimulateUnit generates a synthetic cloud-database unit with the built-in
// simulator (the substitution for production traces; see DESIGN.md).
func SimulateUnit(cfg UnitConfig) (*Unit, error) { return cluster.Simulate(cfg) }

// GenerateDataset builds a labelled multi-unit dataset in the shape of the
// paper's Table III.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// InjectAnomalies applies an anomaly schedule to a simulated unit and
// returns ground-truth labels.
func InjectAnomalies(u *Unit, events []anomaly.Event, seed uint64) (*Labels, error) {
	return anomaly.Inject(u, events, rngFor(seed))
}

// AnomalyEvent re-exports the anomaly episode description.
type AnomalyEvent = anomaly.Event

// Anomaly types.
const (
	Spike             = anomaly.Spike
	LevelShift        = anomaly.LevelShift
	ConceptDrift      = anomaly.ConceptDrift
	Stall             = anomaly.Stall
	LoadBalanceDefect = anomaly.LoadBalanceDefect
	Fragmentation     = anomaly.Fragmentation
	ResourceHog       = anomaly.ResourceHog
)

// Workload profiles.
const (
	TencentIrregular = workload.TencentIrregular
	TencentPeriodic  = workload.TencentPeriodic
	SysbenchI        = workload.SysbenchI
	SysbenchII       = workload.SysbenchII
	TPCCI            = workload.TPCCI
	TPCCII           = workload.TPCCII
)

// rngFor seeds the shared deterministic generator.
func rngFor(seed uint64) *mathx.RNG { return mathx.NewRNG(seed) }

// Explanation attributes a judgment to indicators (root-cause hints).
type Explanation = detect.Explanation

// ExplainWindow judges one window of a unit series and returns the
// per-database indicator attribution: which KPIs deviated and how far.
// This is the root-cause-analysis direction of the paper's future work.
func ExplainWindow(u *UnitSeries, cfg Config, start, size int) ([]*Explanation, error) {
	dcfg := detectConfig(cfg, u.KPIs)
	return detect.Explain(detect.NewEngineProvider(u, dcfg.Engine(), cfg.Active), dcfg, start, size)
}
