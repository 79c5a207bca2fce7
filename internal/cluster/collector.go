package cluster

import (
	"math"

	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/workload"
)

// Collector replays a unit's generated series tick by tick through a
// workload.FaultPlan, producing what a lossy collection pipeline actually
// delivers to the monitor: nil samples for dropped ticks, truncated KPI
// rows, NaN cells for lost points, stale re-deliveries, and scheduled
// whole-database silences. With a zero plan the delivered stream is exactly
// the generated series.
//
// Collector is not safe for concurrent use.
type Collector struct {
	u    *timeseries.UnitSeries
	inj  *workload.Injector
	tick int
	rows [][]float64 // full-width backing storage, re-sliced per tick
	out  [][]float64
}

// NewCollector builds a faulty delivery stream over the unit series.
func NewCollector(u *timeseries.UnitSeries, plan workload.FaultPlan) (*Collector, error) {
	inj, err := plan.NewInjector(u.KPIs, u.Databases)
	if err != nil {
		return nil, err
	}
	c := &Collector{u: u, inj: inj}
	c.rows = make([][]float64, u.KPIs)
	c.out = make([][]float64, u.KPIs)
	for k := range c.rows {
		c.rows[k] = make([]float64, u.Databases)
	}
	return c, nil
}

// Next delivers the next collection tick. ok is false once the series is
// exhausted. A nil sample with ok=true is a wholly-dropped tick. The
// returned rows are reused between calls; ingest them before calling Next
// again.
func (c *Collector) Next() (sample [][]float64, ok bool) {
	if c.tick >= c.u.Len() {
		return nil, false
	}
	f := c.inj.Next()
	t := c.tick
	c.tick++
	if f.Dropped {
		return nil, true
	}
	src := t
	if f.Stale && t > 0 {
		src = t - 1
	}
	for k := 0; k < c.u.KPIs; k++ {
		row := c.rows[k][:f.RowLen[k]]
		for d := range row {
			if f.CellGap[k][d] {
				row[d] = math.NaN()
			} else {
				row[d] = c.u.Data[k][d].At(src)
			}
		}
		c.out[k] = row
	}
	return c.out, true
}
