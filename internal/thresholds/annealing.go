package thresholds

import (
	"context"
	"math"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
)

// SAA is the simulated annealing baseline of Fig. 11: a single genome
// walks the threshold space, accepting worse neighbours with a
// temperature-controlled probability. The walk is inherently sequential —
// each candidate depends on the previous acceptance — so SAA has no
// evaluation pool of its own; parallelize inside the fitness function
// instead (ParallelDetectorFitness fans one evaluation out across its
// labelled units).
type SAA struct {
	// Seed drives the search's randomness.
	Seed uint64
}

const (
	// annealSteps is the number of annealing steps.
	annealSteps = 300
	// initialTemp and finalTemp bound the geometric cooling schedule, in
	// fitness units.
	initialTemp, finalTemp = 0.2, 0.005
)

// Name implements Searcher.
func (SAA) Name() string { return "SAA" }

// Search implements Searcher.
func (s SAA) Search(q int, fitness Fitness) Result {
	res, _ := s.SearchContext(context.Background(), q, fitness)
	return res
}

// SearchContext implements ContextSearcher: the annealing walk checks ctx
// before every step and returns the best candidate found so far on
// cancellation.
func (s SAA) SearchContext(ctx context.Context, q int, fitness Fitness) (Result, error) {
	rng := mathx.NewRNG(s.Seed)
	ec := &evalCounter{fn: fitness}

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	cur := searchRanges.random(q, rng)
	curF := ec.eval(cur)
	best := scored{t: cur.Clone(), f: curF}

	cooling := math.Pow(finalTemp/initialTemp, 1/float64(annealSteps))
	temp := initialTemp
	for step := 0; step < annealSteps; step++ {
		if err := ctx.Err(); err != nil {
			return Result{Best: best.t.Clone(), Fitness: best.f, Evaluations: ec.calls}, err
		}
		cand := s.neighbour(cur, rng)
		candF := ec.eval(cand)
		if accept(curF, candF, temp, rng) {
			cur, curF = cand, candF
			best = betterOf(best, scored{t: cand, f: candF})
		}
		temp *= cooling
	}
	return Result{Best: best.t.Clone(), Fitness: best.f, Evaluations: ec.calls}, nil
}

// neighbour perturbs one random gene.
func (s SAA) neighbour(t window.Thresholds, rng *mathx.RNG) window.Thresholds {
	out := t.Clone()
	switch rng.Intn(3) {
	case 0: // step one alpha
		i := rng.Intn(len(out.Alpha))
		step := searchRanges.LearningRate * rng.Range(0.25, 1)
		if rng.Bool(0.5) {
			step = -step
		}
		out.Alpha[i] = searchRanges.clampAlpha(out.Alpha[i] + step)
	case 1: // jitter theta
		out.Theta = mathx.Clamp(out.Theta+rng.Range(-0.05, 0.05), searchRanges.ThetaMin, searchRanges.ThetaMax)
	default: // bump tolerance
		delta := 1
		if rng.Bool(0.5) {
			delta = -1
		}
		tol := out.MaxTolerance + delta
		if tol < searchRanges.TolMin {
			tol = searchRanges.TolMin
		}
		if tol > searchRanges.TolMax {
			tol = searchRanges.TolMax
		}
		out.MaxTolerance = tol
	}
	return out
}

// accept applies the Metropolis criterion.
func accept(curF, candF, temp float64, rng *mathx.RNG) bool {
	if candF >= curF {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Bool(math.Exp((candF - curF) / temp))
}

// Random is the random search baseline of Fig. 11 (also the protocol every
// compared method uses for threshold selection in §IV-B).
type Random struct {
	// Seed drives the search's randomness.
	Seed uint64
}

// randomTrials is the number of random genomes evaluated.
const randomTrials = 300

// Name implements Searcher.
func (Random) Name() string { return "Random" }

// Search implements Searcher.
func (r Random) Search(q int, fitness Fitness) Result {
	res, _ := r.SearchContext(context.Background(), q, fitness)
	return res
}

// SearchContext implements ContextSearcher: cancellation is observed
// between trial evaluations; completed trials still compete for the
// returned best.
func (r Random) SearchContext(ctx context.Context, q int, fitness Fitness) (Result, error) {
	rng := mathx.NewRNG(r.Seed)
	ec := &evalCounter{fn: fitness}
	trials := make([]window.Thresholds, randomTrials)
	for i := range trials {
		trials[i] = searchRanges.random(q, rng)
	}
	fs, err := ec.evalAllCtx(ctx, trials)
	if err != nil {
		return Result{Evaluations: ec.calls}, err
	}
	var best scored
	best.f = math.Inf(-1)
	// Reduce in trial order so ties resolve to the earliest trial, exactly
	// as the incremental loop did.
	for i, t := range trials {
		best = betterOf(best, scored{t: t, f: fs[i]})
	}
	return Result{Best: best.t.Clone(), Fitness: best.f, Evaluations: ec.calls}, nil
}
