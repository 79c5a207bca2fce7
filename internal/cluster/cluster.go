package cluster

import (
	"fmt"

	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/workload"
)

// Role distinguishes the primary database from replicas within a unit.
type Role int

const (
	// Primary executes writes from clients and replicates them.
	Primary Role = iota
	// Replica serves reads and applies the replication stream.
	Replica
)

// String names the role.
func (r Role) String() string {
	if r == Primary {
		return "primary"
	}
	return "replica"
}

// Config describes one simulated unit.
type Config struct {
	// Name labels the unit in series names and results.
	Name string
	// Databases is the number of databases in the unit. Index 0 is the
	// primary, the rest are replicas (the paper's experimental units have
	// one primary + four replicas).
	Databases int
	// Ticks is the number of 5-second data points to generate.
	Ticks int
	// Profile selects the demand process.
	Profile workload.Profile
	// Seed makes the unit reproducible.
	Seed uint64
	// FluctuationRate is the per-tick probability that a database starts a
	// benign temporal fluctuation (§II-D): a 1-3 point blip on a few KPIs
	// that is NOT an anomaly. Default 0.004.
	FluctuationRate float64
	// Failover, when non-nil, promotes a replica to primary mid-run
	// (§II-A: "a replica instance is selected as the new primary instance
	// and request processing continues as before").
	Failover *Failover
}

// Failover describes a mid-run primary switch.
type Failover struct {
	// Tick at which the switch happens.
	Tick int
	// NewPrimary is the database promoted to primary.
	NewPrimary int
}

// maxCollectDelay is the largest per-database collection delay, in ticks.
// Each database draws a fixed delay in [0, maxCollectDelay], modelling the
// point-in-time delays of §II-D.
const maxCollectDelay = 2

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "unit"
	}
	if c.Databases == 0 {
		c.Databases = 5
	}
	if c.FluctuationRate == 0 {
		c.FluctuationRate = 0.004
	}
	return c
}

// Unit is a simulated cloud-database unit together with its generated
// multivariate series.
type Unit struct {
	Config Config
	// Series is the generated KPI × database layout.
	Series *timeseries.UnitSeries
	// Roles records each database's *initial* role (index 0 is Primary);
	// use PrimaryAt for the role at a given tick when a failover is
	// configured.
	Roles []Role
	// Delays records the fixed per-database collection delay in ticks.
	Delays []int
}

// Simulate generates the unit's KPI series. The same Config (including
// Seed) always yields identical output.
func Simulate(cfg Config) (*Unit, error) {
	cfg = cfg.withDefaults()
	if cfg.Databases < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 databases, got %d", cfg.Databases)
	}
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("cluster: non-positive tick count %d", cfg.Ticks)
	}
	if f := cfg.Failover; f != nil {
		if f.NewPrimary <= 0 || f.NewPrimary >= cfg.Databases {
			return nil, fmt.Errorf("cluster: failover target %d is not a replica of %d databases", f.NewPrimary, cfg.Databases)
		}
		if f.Tick < 0 || f.Tick >= cfg.Ticks {
			return nil, fmt.Errorf("cluster: failover tick %d outside run of %d ticks", f.Tick, cfg.Ticks)
		}
	}
	rng := mathx.NewRNG(cfg.Seed)
	gen := workload.New(cfg.Profile, rng.Split(1))
	// Read traffic splits through a healthy balancer with 2% jitter.
	bal := NewUniformBalancer(cfg.Databases, 0.02, rng.Split(2))

	u := &Unit{
		Config: cfg,
		Series: timeseries.NewUnitSeries(cfg.Name, kpi.Count, cfg.Databases),
		Roles:  make([]Role, cfg.Databases),
		Delays: make([]int, cfg.Databases),
	}
	dbs := make([]*dbSynth, cfg.Databases)
	for d := 0; d < cfg.Databases; d++ {
		role := Replica
		if d == 0 {
			role = Primary
		}
		u.Roles[d] = role
		delay := rng.Intn(maxCollectDelay + 1)
		u.Delays[d] = delay
		dbs[d] = newDBSynth(role, delay, rng.Split(uint64(10+d)))
	}

	// History of demands so delayed databases observe past ticks. Warm it
	// up so tick 0 has history to look back into.
	hist := newDemandHistory(maxCollectDelay + 1)
	for i := 0; i <= maxCollectDelay; i++ {
		hist.push(gen.Next(), bal.Shares())
	}

	for t := 0; t < cfg.Ticks; t++ {
		if f := cfg.Failover; f != nil && t == f.Tick {
			// Promote: the old primary demotes to replica; the target
			// starts carrying the primary's client-side statement load.
			dbs[0].role = Replica
			dbs[0].ownStmt = 0
			dbs[f.NewPrimary].role = Primary
		}
		hist.push(gen.Next(), bal.Shares())
		for d, db := range dbs {
			demand, shares := hist.lookback(db.delay)
			row := db.tick(demand, shares[d], cfg.FluctuationRate)
			for k := 0; k < kpi.Count; k++ {
				u.Series.Data[k][d].Append(row[k])
			}
		}
	}
	for k := 0; k < kpi.Count; k++ {
		for d := 0; d < cfg.Databases; d++ {
			s := u.Series.Data[k][d]
			s.Name = fmt.Sprintf("%s/db%d/%s", cfg.Name, d, kpi.KPI(k))
		}
	}
	return u, nil
}

// demandHistory is a short ring of recent (demand, shares) pairs used to
// implement per-database collection delays.
type demandHistory struct {
	demands [][2]float64 // read, write
	shares  [][]float64
	size    int
	next    int
	filled  int
}

func newDemandHistory(size int) *demandHistory {
	return &demandHistory{
		demands: make([][2]float64, size),
		shares:  make([][]float64, size),
		size:    size,
	}
}

func (h *demandHistory) push(d workload.Demand, shares []float64) {
	h.demands[h.next] = [2]float64{d.Read, d.Write}
	h.shares[h.next] = mathx.Clone(shares)
	h.next = (h.next + 1) % h.size
	if h.filled < h.size {
		h.filled++
	}
}

// lookback returns the demand and shares from `delay` ticks ago (0 = the
// most recent push).
func (h *demandHistory) lookback(delay int) (workload.Demand, []float64) {
	if delay >= h.filled {
		delay = h.filled - 1
	}
	idx := (h.next - 1 - delay + 2*h.size) % h.size
	d := h.demands[idx]
	return workload.Demand{Read: d[0], Write: d[1]}, h.shares[idx]
}
