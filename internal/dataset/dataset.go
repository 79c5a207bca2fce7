// Package dataset assembles multi-unit labelled datasets in the shape of
// the paper's Table III: a Tencent-like mixed dataset plus Sysbench and
// TPCC benchmark datasets, each a mixture of 60% irregular and 40% periodic
// units with a 3-4% abnormal point ratio, split 50/50 into train and test
// by time (§IV-B).
package dataset

import (
	"fmt"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/fleet"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/workload"
)

// Family selects the dataset family of Table III.
type Family int

const (
	// Tencent is the production-trace-like dataset (100 units in the
	// paper).
	Tencent Family = iota
	// Sysbench is the Sysbench benchmark dataset (50 units).
	Sysbench
	// TPCC is the TPC-C benchmark dataset (50 units).
	TPCC
)

// String names the family as in Table III.
func (f Family) String() string {
	switch f {
	case Tencent:
		return "Tencent"
	case Sysbench:
		return "Sysbench"
	case TPCC:
		return "TPCC"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// profiles returns the (irregular, periodic) workload profiles of the
// family.
func (f Family) profiles() (irregular, periodic workload.Profile) {
	switch f {
	case Tencent:
		return workload.TencentIrregular, workload.TencentPeriodic
	case Sysbench:
		return workload.SysbenchI, workload.SysbenchII
	case TPCC:
		return workload.TPCCI, workload.TPCCII
	default:
		panic(fmt.Sprintf("dataset: unknown family %d", int(f)))
	}
}

// anomalyRatio returns the Table III abnormal-point ratio of the family.
func (f Family) anomalyRatio() float64 {
	switch f {
	case Tencent:
		return 0.0311
	case Sysbench:
		return 0.0421
	case TPCC:
		return 0.0406
	default:
		return 0.04
	}
}

// defaultUnits returns the Table III unit count of the family.
func (f Family) defaultUnits() int {
	if f == Tencent {
		return 100
	}
	return 50
}

// Config describes a dataset to generate.
type Config struct {
	Family Family
	// Units is the number of units; 0 uses the Table III count.
	Units int
	// Ticks is the number of points per series; 0 uses 2592 (3.6 h at
	// 5 s, the per-database point count implied by Table III's Sysbench
	// row: 50 units x 5 DBs x 2592 = 648000).
	Ticks int
	// AnomalyRatio of abnormal ticks; 0 uses the Table III family ratio.
	AnomalyRatio float64
	// Seed makes the dataset reproducible.
	Seed uint64
	// Concurrency bounds the per-unit generation fan-out: <= 0 uses
	// GOMAXPROCS, 1 forces serial generation. Every unit derives its RNG
	// from the root seed before the fan-out starts, so the dataset is
	// bit-identical at any setting.
	Concurrency int
}

func (c Config) withDefaults() Config {
	if c.Units == 0 {
		c.Units = c.Family.defaultUnits()
	}
	if c.Ticks == 0 {
		c.Ticks = 2592
	}
	if c.AnomalyRatio == 0 {
		c.AnomalyRatio = c.Family.anomalyRatio()
	}
	return c
}

// UnitData is one generated unit with its ground truth.
type UnitData struct {
	Unit    *cluster.Unit
	Labels  *anomaly.Labels
	Profile workload.Profile
}

// Dataset is a collection of labelled units.
type Dataset struct {
	Name   string
	Family Family
	Units  []*UnitData
}

const (
	// databases per unit: one primary and four replicas (§IV-A5).
	databases = 5
	// periodicFraction of units is driven by the periodic profile, the
	// paper's 40%.
	periodicFraction = 0.4
)

// Generate builds the dataset described by cfg. Unit i uses the periodic
// profile iff i falls into the leading periodicFraction of units; the
// abnormal schedule is drawn per unit.
func Generate(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.Units <= 0 || cfg.Ticks <= 0 {
		return nil, fmt.Errorf("dataset: non-positive units/ticks")
	}
	irr, per := cfg.Family.profiles()
	ds := &Dataset{Name: cfg.Family.String(), Family: cfg.Family}
	nPeriodic := int(periodicFraction * float64(cfg.Units))
	// Derive every unit's RNG from the root serially first: Split advances
	// the root state, so the derivation order must not depend on
	// scheduling. After this loop each unit owns an independent stream and
	// the simulations can run in any order.
	root := mathx.NewRNG(cfg.Seed)
	rngs := make([]*mathx.RNG, cfg.Units)
	for i := range rngs {
		rngs[i] = root.Split(uint64(i + 1))
	}
	ds.Units = make([]*UnitData, cfg.Units)
	err := fleet.Each(cfg.Units, cfg.Concurrency, func(i int) error {
		profile := irr
		if i < nPeriodic {
			profile = per
		}
		unitRNG := rngs[i]
		u, err := cluster.Simulate(cluster.Config{
			Name:      fmt.Sprintf("%s-unit%03d", cfg.Family, i),
			Databases: databases,
			Ticks:     cfg.Ticks,
			Profile:   profile,
			Seed:      unitRNG.Uint64(),
		})
		if err != nil {
			return err
		}
		events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
			Ticks:       cfg.Ticks,
			Databases:   databases,
			TargetRatio: cfg.AnomalyRatio,
		}, unitRNG)
		labels, err := anomaly.Inject(u, events, unitRNG)
		if err != nil {
			return err
		}
		ds.Units[i] = &UnitData{Unit: u, Labels: labels, Profile: profile}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// Stats reproduces a Table III row.
type Stats struct {
	Name          string
	Units         int
	Dimensions    int
	TotalPoints   int
	AnomalPoints  int
	AbnormalRatio float64
}

// Stats computes the dataset's Table III row. TotalPoints counts every
// stored observation (units x databases x ticks); a tick during which the
// unit is abnormal contributes all of its databases' points to
// AnomalPoints, matching the paper's per-unit labelling.
func (d *Dataset) Stats() Stats {
	s := Stats{Name: d.Name, Units: len(d.Units), Dimensions: kpi.Count}
	for _, u := range d.Units {
		n := u.Unit.Series.Len()
		dbs := u.Unit.Series.Databases
		s.TotalPoints += n * dbs
		s.AnomalPoints += u.Labels.AbnormalCount() * dbs
	}
	if s.TotalPoints > 0 {
		s.AbnormalRatio = float64(s.AnomalPoints) / float64(s.TotalPoints)
	}
	return s
}

// Split divides every unit at frac of its length: the leading part forms
// the training set and the remainder the testing set (§IV-B uses 0.5).
func (d *Dataset) Split(frac float64) (train, test *Dataset, err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("dataset: split fraction %v out of (0,1)", frac)
	}
	train = &Dataset{Name: d.Name + "-train", Family: d.Family}
	test = &Dataset{Name: d.Name + "-test", Family: d.Family}
	for _, u := range d.Units {
		n := u.Unit.Series.Len()
		cut := int(frac * float64(n))
		if cut <= 0 || cut >= n {
			return nil, nil, fmt.Errorf("dataset: unit %s too short to split", u.Unit.Config.Name)
		}
		head, err := sliceUnit(u, 0, cut)
		if err != nil {
			return nil, nil, err
		}
		tail, err := sliceUnit(u, cut, n)
		if err != nil {
			return nil, nil, err
		}
		train.Units = append(train.Units, head)
		test.Units = append(test.Units, tail)
	}
	return train, test, nil
}

// sliceUnit produces a view of one unit restricted to [start, end).
func sliceUnit(u *UnitData, start, end int) (*UnitData, error) {
	sub, err := u.Unit.Series.SliceRange(start, end)
	if err != nil {
		return nil, err
	}
	labels := anomaly.NewLabels(end - start)
	for t := start; t < end; t++ {
		labels.Point[t-start] = u.Labels.Point[t]
		labels.DB[t-start] = u.Labels.DB[t]
	}
	for _, e := range u.Labels.Events {
		if e.Start >= start && e.End() <= end {
			shifted := e
			shifted.Start -= start
			labels.Events = append(labels.Events, shifted)
		}
	}
	unit := &cluster.Unit{
		Config: u.Unit.Config,
		Series: sub,
		Roles:  u.Unit.Roles,
		Delays: u.Unit.Delays,
	}
	return &UnitData{Unit: unit, Labels: labels, Profile: u.Profile}, nil
}

// SplitByProfile returns the irregular/periodic sub-datasets using the
// generation-time ground truth instead of the detector. Useful when units
// are too short for reliable period detection.
func (d *Dataset) SplitByProfile() (irregular, periodic *Dataset) {
	irregular = &Dataset{Name: d.Name + " I", Family: d.Family}
	periodic = &Dataset{Name: d.Name + " II", Family: d.Family}
	for _, u := range d.Units {
		if u.Profile.Periodic() {
			periodic.Units = append(periodic.Units, u)
		} else {
			irregular.Units = append(irregular.Units, u)
		}
	}
	return irregular, periodic
}

// DefaultUnits exposes the Table III unit count of the family.
func (f Family) DefaultUnits() int { return f.defaultUnits() }
