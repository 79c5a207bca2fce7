// Package thresholds implements DBCatcher's adaptive threshold learning
// policy (§III-D): a genetic algorithm (Algorithm 2) over the judgment
// parameters (α_1..α_Q, θ, max tolerance), plus the simulated annealing and
// random search baselines it is compared against in Fig. 11.
//
// A candidate's fitness is its detection performance (F-Measure) over the
// most recent period of DBA-labelled judgment records; DetectorFitness
// builds such a function from labelled units with memoized correlation
// matrices, so that re-evaluating a genome only repeats the cheap
// level-mapping, never the correlation measurement.
package thresholds

import (
	"context"
	"fmt"
	"math"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
)

// Fitness scores a candidate threshold set; higher is better. DBCatcher
// uses the F-Measure on recent labelled judgment records.
type Fitness func(window.Thresholds) float64

// Ranges bounds the searched genome, using the paper's initialization
// ranges by default.
type Ranges struct {
	AlphaMin, AlphaMax float64 // correlation thresholds α_i
	ThetaMin, ThetaMax float64 // tolerance threshold θ
	TolMin, TolMax     int     // maximum tolerance deviation number
	// LearningRate is the mutation step Δ for α_i (paper: 0.1).
	LearningRate float64
}

// DefaultRanges returns the search ranges. The paper initializes α_i in
// [0.6, 0.8] for its production score distribution; the simulator's
// fluctuation regime sits lower on the score scale, so the default α
// floor here is 0.45 — mutation can still walk below it by up to 2Δ. θ,
// tolerance, and Δ match §III-D exactly ([0.1, 0.3], [0, 3], 0.1).
func DefaultRanges() Ranges {
	return Ranges{
		AlphaMin: 0.45, AlphaMax: 0.8,
		ThetaMin: 0.1, ThetaMax: 0.3,
		TolMin: 0, TolMax: 3,
		LearningRate: 0.1,
	}
}

// searchRanges bounds the genome every searcher explores.
var searchRanges = DefaultRanges()

// random draws a uniform genome within the ranges.
func (r Ranges) random(q int, rng *mathx.RNG) window.Thresholds {
	t := window.Thresholds{Alpha: make([]float64, q)}
	for i := range t.Alpha {
		t.Alpha[i] = rng.Range(r.AlphaMin, r.AlphaMax)
	}
	t.Theta = rng.Range(r.ThetaMin, r.ThetaMax)
	t.MaxTolerance = r.TolMin + rng.Intn(r.TolMax-r.TolMin+1)
	return t
}

// clampAlpha keeps a mutated α within a loosened band around the
// initialization range so mutation can explore past the initial bounds
// without leaving the meaningful correlation-score domain.
func (r Ranges) clampAlpha(a float64) float64 {
	lo := r.AlphaMin - 2*r.LearningRate
	hi := r.AlphaMax + 2*r.LearningRate
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return mathx.Clamp(a, lo, hi)
}

// Result is the outcome of a threshold search.
type Result struct {
	Best    window.Thresholds
	Fitness float64
	// Evaluations counts fitness calls, the dominant cost.
	Evaluations int
}

// Searcher is the common interface of the three policies compared in
// Fig. 11.
type Searcher interface {
	// Search optimizes thresholds for q KPIs under the given fitness.
	Search(q int, fitness Fitness) Result
	// Name labels the policy in experiment tables.
	Name() string
}

// ContextSearcher is a Searcher whose search is cancellable: the online
// relearning supervisor runs searches under a hard deadline, so a runaway
// search must be stoppable. GA, SAA, and Random all implement it.
type ContextSearcher interface {
	Searcher
	// SearchContext is Search honoring ctx: cancellation is observed
	// between fitness evaluations (a single evaluation is never
	// interrupted). With a never-done ctx the Result is identical to
	// Search's. On cancellation it returns the best candidate found so
	// far together with ctx's error; callers enforcing a validity
	// guarantee must discard the Result whenever the error is non-nil
	// (an early cancellation can surface a zero-value genome).
	SearchContext(ctx context.Context, q int, fitness Fitness) (Result, error)
}

// Contains reports whether t lies inside the searchable domain the ranges
// describe: every α within the mutation-reachable band (the initialization
// range loosened by 2Δ and clipped to [0, 1]), θ within [ThetaMin,
// ThetaMax], and the tolerance within [TolMin, TolMax]. Non-finite values
// are rejected. The live API uses this to refuse operator-supplied
// thresholds the search itself could never produce.
func (r Ranges) Contains(t window.Thresholds) error {
	lo := r.AlphaMin - 2*r.LearningRate
	if lo < 0 {
		lo = 0
	}
	hi := r.AlphaMax + 2*r.LearningRate
	if hi > 1 {
		hi = 1
	}
	for i, a := range t.Alpha {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("thresholds: alpha[%d] is not finite", i)
		}
		if a < lo || a > hi {
			return fmt.Errorf("thresholds: alpha[%d]=%v outside [%v, %v]", i, a, lo, hi)
		}
	}
	if math.IsNaN(t.Theta) || math.IsInf(t.Theta, 0) {
		return fmt.Errorf("thresholds: theta is not finite")
	}
	if t.Theta < r.ThetaMin || t.Theta > r.ThetaMax {
		return fmt.Errorf("thresholds: theta=%v outside [%v, %v]", t.Theta, r.ThetaMin, r.ThetaMax)
	}
	if t.MaxTolerance < r.TolMin || t.MaxTolerance > r.TolMax {
		return fmt.Errorf("thresholds: tolerance %d outside [%d, %d]", t.MaxTolerance, r.TolMin, r.TolMax)
	}
	return nil
}

// scored pairs a genome with its fitness.
type scored struct {
	t window.Thresholds
	f float64
}

// evalCounter wraps a fitness function to count calls.
type evalCounter struct {
	fn    Fitness
	calls int
}

func (e *evalCounter) eval(t window.Thresholds) float64 {
	e.calls++
	return e.fn(t)
}

// evalAllCtx scores a batch of genomes, calling the fitness strictly in
// genome order (a fitness may be order-dependent or stateful). ctx is
// checked before every evaluation (a fitness call in flight is never
// interrupted). On a nil error the scores are complete; on a non-nil
// error they are partial and must be discarded.
func (e *evalCounter) evalAllCtx(ctx context.Context, genomes []window.Thresholds) ([]float64, error) {
	out := make([]float64, len(genomes))
	for i, t := range genomes {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out[i] = e.fn(t)
		e.calls++
	}
	return out, nil
}

// betterOf returns the higher-fitness candidate, preferring a over ties.
func betterOf(a, b scored) scored {
	if b.f > a.f {
		return b
	}
	return a
}

// safeProb normalizes possibly all-zero fitness masses into selection
// probabilities (Eq. 6); a uniform fallback avoids division by zero.
func safeProb(weights []float64) []float64 {
	total := 0.0
	for _, w := range weights {
		if w > 0 && !math.IsNaN(w) {
			total += w
		}
	}
	out := make([]float64, len(weights))
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(weights))
		}
		return out
	}
	for i, w := range weights {
		if w > 0 && !math.IsNaN(w) {
			out[i] = w / total
		}
	}
	return out
}

// pick samples an index from the probability vector.
func pick(probs []float64, rng *mathx.RNG) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}
