// Package workload models the demand processes that drive the cloud
// database unit simulator. A Generator produces, at every 5-second tick,
// the unit-level read and write demand (requests per second) that the load
// balancer then spreads across the databases of a unit.
//
// Three families mirror the paper's datasets (§IV-A):
//
//   - Tencent-like: a mixture of diurnal periodicity, bursty flash crowds,
//     and autoregressive drift, reproducing the "changes more frequently
//     and with greater magnitude" character of production traces.
//   - Sysbench-like: uniform OLTP point queries, parameterized by the
//     thread/table grid of Table IV.
//   - TPCC-like: the TPC-C transaction mix (heavier writes), with warmup
//     ramps, parameterized by the warehouse/thread grid of Table IV.
//
// Each family has an irregular variant (I) built from random parameter
// sweeps and a periodic variant (II) built from cyclic parameter schedules,
// matching how the paper constructs its irregular and periodic datasets.
package workload

import (
	"fmt"

	"dbcatcher/internal/mathx"
)

// Demand is the unit-level offered load during one tick.
type Demand struct {
	// Read is the read requests per second arriving at the unit.
	Read float64
	// Write is the write requests per second (all routed to the primary
	// and replicated to the others).
	Write float64
}

// Generator produces the demand sequence for one unit.
type Generator interface {
	// Next returns the demand for the next tick.
	Next() Demand
	// Name identifies the profile for logs and dataset metadata.
	Name() string
}

// Profile selects one of the six demand families of §IV-A.
type Profile int

const (
	// TencentIrregular mimics irregular production traces (Tencent I).
	TencentIrregular Profile = iota
	// TencentPeriodic mimics diurnal production traces (Tencent II).
	TencentPeriodic
	// SysbenchI is the irregular Sysbench sweep of Table IV.
	SysbenchI
	// SysbenchII is the periodic Sysbench schedule of Table IV.
	SysbenchII
	// TPCCI is the irregular TPC-C sweep of Table IV.
	TPCCI
	// TPCCII is the periodic TPC-C schedule of Table IV.
	TPCCII
)

// String returns the dataset-style name of the profile.
func (p Profile) String() string {
	switch p {
	case TencentIrregular:
		return "Tencent I"
	case TencentPeriodic:
		return "Tencent II"
	case SysbenchI:
		return "Sysbench I"
	case SysbenchII:
		return "Sysbench II"
	case TPCCI:
		return "TPCC I"
	case TPCCII:
		return "TPCC II"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// Periodic reports whether the profile belongs to the periodic (II) group.
func (p Profile) Periodic() bool {
	return p == TencentPeriodic || p == SysbenchII || p == TPCCII
}

// New returns a generator for the profile, seeded from rng.
func New(p Profile, rng *mathx.RNG) Generator {
	switch p {
	case TencentIrregular:
		return newTencent(rng, false)
	case TencentPeriodic:
		return newTencent(rng, true)
	case SysbenchI:
		return newSysbench(rng, false)
	case SysbenchII:
		return newSysbench(rng, true)
	case TPCCI:
		return newTPCC(rng, false)
	case TPCCII:
		return newTPCC(rng, true)
	default:
		panic(fmt.Sprintf("workload: unknown profile %d", int(p)))
	}
}
