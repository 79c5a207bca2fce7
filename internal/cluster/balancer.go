// Package cluster simulates a cloud-database unit (Fig. 2 of the paper):
// one primary database and several replicas behind a load balancer, each
// emitting the 14 KPI time series of Table II at 5-second ticks.
//
// The simulator is the substitution for the paper's production traces (see
// DESIGN.md): all databases of a unit are driven by a shared unit-level
// demand process, individually distorted by per-database gains, collection
// delays, measurement noise, and benign temporal fluctuations. This
// reproduces the UKPIC phenomenon — correlated trends with point-in-time
// delays — that DBCatcher exploits, and the role split (primary vs
// replica) reproduces the P-R vs R-R correlation types of Table II.
package cluster

import "dbcatcher/internal/mathx"

// UniformBalancer spreads reads evenly with small per-tick jitter,
// modelling a healthy load-balancing module ("the number of SQLs processed
// by each database is similar", §II-B).
type UniformBalancer struct {
	rng    *mathx.RNG
	jitter float64
	buf    []float64
}

// NewUniformBalancer returns a balancer over n databases whose per-tick
// shares deviate from 1/n by a relative jitter (e.g. 0.05 for ±5%).
func NewUniformBalancer(n int, jitter float64, rng *mathx.RNG) *UniformBalancer {
	return &UniformBalancer{rng: rng, jitter: jitter, buf: make([]float64, n)}
}

// Shares returns the next tick's read-traffic fraction per database: each
// share is positive and they sum to 1. The returned slice is reused by the
// next call.
func (b *UniformBalancer) Shares() []float64 {
	var sum float64
	for i := range b.buf {
		w := 1 + b.rng.NormMeanStd(0, b.jitter)
		if w < 0.01 {
			w = 0.01
		}
		b.buf[i] = w
		sum += w
	}
	for i := range b.buf {
		b.buf[i] /= sum
	}
	return b.buf
}
