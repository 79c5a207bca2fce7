package workload

import (
	"fmt"

	"dbcatcher/internal/mathx"
)

// FaultPlan describes the collector-side delivery faults of a lossy
// monitoring pipeline. Where the demand generators model what the unit
// *does*, a FaultPlan models what the collection agents *fail to deliver*:
// whole ticks dropped on the wire, stale re-deliveries, truncated rows, and
// individual cells lost — plus scheduled silences where one database's
// agent is down entirely. The same plan and seed always produce the same
// fault stream.
type FaultPlan struct {
	// Seed drives the per-tick randomness.
	Seed uint64
	// DropTickRate is the probability that a whole collection tick is lost
	// (the monitor sees nothing for any database that tick).
	DropTickRate float64
	// DropCellRate is the per-(KPI, database) probability that a single
	// cell is lost from an otherwise delivered tick.
	DropCellRate float64
	// PartialRowRate is the per-KPI probability that a row arrives
	// truncated at a random database index (trailing cells lost).
	PartialRowRate float64
	// StaleRate is the probability that a tick is delivered stale: the
	// collector re-sends the previous tick's values instead of fresh ones.
	StaleRate float64
	// Silences schedules whole-database outages: every cell of the silent
	// database is lost for the duration.
	Silences []Silence
}

// Silence is a scheduled whole-database collection outage.
type Silence struct {
	// DB is the silent database.
	DB int
	// Start is the first affected tick; Length the number of ticks.
	Start, Length int
}

// Covers reports whether the silence is in effect at tick t.
func (s Silence) Covers(t int) bool {
	return t >= s.Start && t < s.Start+s.Length
}

// IsZero reports whether the plan injects no faults at all.
func (p FaultPlan) IsZero() bool {
	return p.DropTickRate == 0 && p.DropCellRate == 0 && p.PartialRowRate == 0 &&
		p.StaleRate == 0 && len(p.Silences) == 0
}

// Validate checks rates and silence schedules against the unit shape.
func (p FaultPlan) Validate(kpis, dbs int) error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"drop-tick", p.DropTickRate},
		{"drop-cell", p.DropCellRate},
		{"partial-row", p.PartialRowRate},
		{"stale", p.StaleRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("workload: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	for i, s := range p.Silences {
		if s.DB < 0 || s.DB >= dbs {
			return fmt.Errorf("workload: silence %d targets database %d of %d", i, s.DB, dbs)
		}
		if s.Start < 0 || s.Length <= 0 {
			return fmt.Errorf("workload: silence %d has empty range [%d, %d)", i, s.Start, s.Start+s.Length)
		}
	}
	if kpis <= 0 || dbs <= 0 {
		return fmt.Errorf("workload: non-positive fault shape %dx%d", kpis, dbs)
	}
	return nil
}

// TickFault is the realized fault pattern for one collection tick. The
// slices are reused between ticks; consume them before the next call.
type TickFault struct {
	// Dropped: the whole tick was lost (everything else is irrelevant).
	Dropped bool
	// Stale: the tick was delivered with the previous tick's values.
	Stale bool
	// RowLen is the delivered length of each KPI row (dbs = complete).
	RowLen []int
	// CellGap marks individually lost cells, CellGap[k][d].
	CellGap [][]bool
}

// Injector materializes a FaultPlan into a deterministic per-tick fault
// stream for a kpis × dbs unit. It is not safe for concurrent use.
type Injector struct {
	plan  FaultPlan
	rng   *mathx.RNG
	kpis  int
	dbs   int
	tick  int
	fault TickFault
}

// NewInjector validates the plan against the shape and returns its fault
// stream.
func (p FaultPlan) NewInjector(kpis, dbs int) (*Injector, error) {
	if err := p.Validate(kpis, dbs); err != nil {
		return nil, err
	}
	in := &Injector{plan: p, rng: mathx.NewRNG(p.Seed).Split(0xfa17), kpis: kpis, dbs: dbs}
	in.fault.RowLen = make([]int, kpis)
	in.fault.CellGap = make([][]bool, kpis)
	for k := range in.fault.CellGap {
		in.fault.CellGap[k] = make([]bool, dbs)
	}
	return in, nil
}

// Next realizes the fault pattern for the next tick. The returned struct's
// slices are reused; the caller must apply them before calling Next again.
//
// Per-tick random draws happen in a fixed order regardless of which
// channels are enabled, so enabling one channel does not reshuffle the
// others' schedules across runs.
func (in *Injector) Next() TickFault {
	t := in.tick
	in.tick++
	f := &in.fault
	f.Dropped = in.rng.Bool(in.plan.DropTickRate)
	f.Stale = in.rng.Bool(in.plan.StaleRate)
	for k := 0; k < in.kpis; k++ {
		cut := in.rng.Bool(in.plan.PartialRowRate)
		at := in.rng.Intn(in.dbs)
		if cut {
			f.RowLen[k] = at
		} else {
			f.RowLen[k] = in.dbs
		}
		for d := 0; d < in.dbs; d++ {
			f.CellGap[k][d] = in.rng.Bool(in.plan.DropCellRate)
		}
	}
	for _, s := range in.plan.Silences {
		if !s.Covers(t) {
			continue
		}
		for k := 0; k < in.kpis; k++ {
			f.CellGap[k][s.DB] = true
		}
	}
	return *f
}
