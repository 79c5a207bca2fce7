package main

import (
	"fmt"
	"math"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	sim "dbcatcher/internal/workload"
)

const (
	// dbsPerUnit is the daemon's default unit shape.
	dbsPerUnit = 5
	// cycleTicks is how many ticks are generated per unit at most; longer
	// runs replay them cyclically (and tile the labels).
	cycleTicks = 2400
	// anomalyRatio is the daemon's default -anomaly-ratio.
	anomalyRatio = 0.03
	// unitSeedStride spaces per-unit seeds as the daemon does.
	unitSeedStride = 1009
)

// unitInput is one unit's pre-generated collection stream, stored flat:
// tick t's sample is values[t*stride:(t+1)*stride] in kpi-major order.
type unitInput struct {
	values []float64
	// dropped[t] marks a wholly dropped tick (delivered as a nil sample).
	dropped []bool
	// abnormal[t] is the injected ground truth at tick t.
	abnormal []bool
	// view holds the row headers sample returns.
	view [][]float64
}

const stride = kpi.Count * dbsPerUnit

// sample returns tick's sample in the monitor's sample[kpi][db] layout,
// replaying the generated ticks cyclically. The rows alias the unit's
// storage and the headers are reused by the next call: every consumer (a
// judge's ingestion, a feed's publish) copies the values before that.
func (in *unitInput) sample(tick int) [][]float64 {
	t := tick % len(in.dropped)
	if in.dropped[t] {
		return nil
	}
	row := in.values[t*stride : (t+1)*stride]
	for k := range in.view {
		in.view[k] = row[k*dbsPerUnit : (k+1)*dbsPerUnit : (k+1)*dbsPerUnit]
	}
	return in.view
}

// generate builds every unit's input for a run of ticks ticks from seed:
// the daemon's simulation (tencent-irregular profile, per-unit seeds
// seed + i*1009), its anomaly schedule and injection, and the workload's
// collector fault plan. It is the only place the run's seed is read.
func generate(w workload, seed uint64, ticks int) ([]unitInput, error) {
	if ticks > cycleTicks {
		ticks = cycleTicks
	}
	out := make([]unitInput, w.units)
	for i := range out {
		s := seed + uint64(i)*unitSeedStride
		u, err := cluster.Simulate(cluster.Config{
			Name: fmt.Sprintf("unit-%03d", i), Databases: dbsPerUnit, Ticks: ticks,
			Profile: sim.TencentIrregular, Seed: s,
		})
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
			Ticks: ticks, Databases: dbsPerUnit, TargetRatio: anomalyRatio,
		}, mathx.NewRNG(s+1))
		labels, err := anomaly.Inject(u, events, mathx.NewRNG(s+2))
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		plan := sim.FaultPlan{}
		if w.faults {
			plan = faultPlan(i)
		}
		plan.Seed = s + 3
		c, err := cluster.NewCollector(u.Series, plan)
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		values, dropped, err := collect(c, ticks)
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		if err := checkNotFlat(values, dropped); err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		out[i] = unitInput{values: values, dropped: dropped, abnormal: labels.Point, view: make([][]float64, kpi.Count)}
	}
	return out, nil
}

// faultPlan is the dashboard workload's collector degradation for unit i:
// sparse cell and tick loss plus one 40-tick database silence, staggered
// across units so deactivations do not all land on one tick.
func faultPlan(i int) sim.FaultPlan {
	return sim.FaultPlan{
		DropCellRate: 0.01,
		DropTickRate: 0.002,
		Silences:     []sim.Silence{{DB: i % dbsPerUnit, Start: 200 + 60*(i%32), Length: 40}},
	}
}

// collect drains the collector into owned storage. The collector reuses its
// row buffers between Next calls, so every sample must be copied: storing
// the returned rows would replay one constant tick.
func collect(c *cluster.Collector, ticks int) (values []float64, dropped []bool, err error) {
	values = make([]float64, 0, ticks*stride)
	for {
		s, ok := c.Next()
		if !ok {
			return values, dropped, nil
		}
		dropped = append(dropped, s == nil)
		if s == nil {
			values = append(values, make([]float64, stride)...)
			continue
		}
		if len(s) != kpi.Count {
			return nil, nil, fmt.Errorf("collector delivered %d KPI rows", len(s))
		}
		for _, row := range s {
			if len(row) != dbsPerUnit {
				return nil, nil, fmt.Errorf("collector delivered a %d-database row", len(row))
			}
			values = append(values, row...)
		}
	}
}

// checkNotFlat rejects an input whose consecutive delivered samples are
// mostly identical, the signature of an aliased collector buffer.
func checkNotFlat(values []float64, dropped []bool) error {
	changed, compared := 0, 0
	for t := 1; t < len(dropped); t++ {
		if dropped[t-1] || dropped[t] {
			continue
		}
		compared++
		a, b := values[(t-1)*stride:t*stride], values[t*stride:(t+1)*stride]
		for i := range a {
			if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
				changed++
				break
			}
		}
	}
	if compared == 0 || changed*2 < compared {
		return fmt.Errorf("generated input is flat: %d of %d consecutive samples differ", changed, compared)
	}
	return nil
}
