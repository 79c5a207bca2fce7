// Package relearn closes DBCatcher's adaptation loop online: a supervised
// background relearning service that watches the live correlation-distance
// stream and the DBA feedback store for drift, re-fits the judgment
// thresholds (Algorithm 2) in an isolated, deadline-bounded goroutine,
// validates candidates on held-out judgment records, shadow-judges the
// survivors against live traffic, and promotes or rolls back atomically —
// so a bad, slow, or crashing retrain can never degrade live detection.
package relearn

import "math"

// DriftConfig tunes the Page-Hinkley change test on the correlation
// distance stream (1 - mean pairwise correlation per resolved round).
type DriftConfig struct {
	// Lambda is the alarm threshold on the accumulated deviation
	// (default 0.15).
	Lambda float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Lambda == 0 {
		c.Lambda = 0.15
	}
	return c
}

const (
	// driftDelta is the magnitude tolerance: deviations below it do not
	// accumulate.
	driftDelta = 0.005
	// driftWarmup is the number of observations consumed before the test
	// may alarm, letting the running mean settle.
	driftWarmup = 30
)

// PageHinkley detects a sustained upward shift in a stream's mean — here,
// the correlation distance rising as workload drift decouples previously
// correlated databases. It maintains the cumulative deviation of each
// observation from the running mean (minus the tolerance driftDelta) and
// alarms when the cumulation climbs more than Lambda above its historical
// minimum. Not safe for concurrent use; the Supervisor serializes access.
type PageHinkley struct {
	cfg  DriftConfig
	n    int
	mean float64
	cum  float64
	min  float64
}

// NewPageHinkley returns a drift test; zero config fields take defaults.
func NewPageHinkley(cfg DriftConfig) *PageHinkley {
	return &PageHinkley{cfg: cfg.withDefaults()}
}

// Observe feeds one value and reports whether the test alarms. NaN values
// (skipped rounds measure nothing) are ignored. An alarm resets the test,
// so consecutive alarms require the shift to re-accumulate from scratch.
func (p *PageHinkley) Observe(x float64) bool {
	if math.IsNaN(x) {
		return false
	}
	p.n++
	p.mean += (x - p.mean) / float64(p.n)
	p.cum += x - p.mean - driftDelta
	if p.cum < p.min {
		p.min = p.cum
	}
	if p.n <= driftWarmup {
		return false
	}
	if p.cum-p.min > p.cfg.Lambda {
		p.Reset()
		return true
	}
	return false
}

// Reset clears the accumulated state (also applied after every alarm).
func (p *PageHinkley) Reset() {
	p.n, p.mean, p.cum, p.min = 0, 0, 0, 0
}

// Stat returns the current test statistic (the accumulated deviation above
// its minimum), for status reporting; an alarm fires when it exceeds
// Lambda.
func (p *PageHinkley) Stat() float64 { return p.cum - p.min }
