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
	// Steps is the number of annealing steps (default 300).
	Steps int
	// InitialTemp and FinalTemp bound the geometric cooling schedule
	// (defaults 0.2 and 0.005, in fitness units).
	InitialTemp, FinalTemp float64
	// Ranges bounds the genome; zero value means DefaultRanges.
	Ranges Ranges
	// Seed drives the search's randomness.
	Seed uint64
}

func (s SAA) withDefaults() SAA {
	if s.Steps == 0 {
		s.Steps = 300
	}
	if s.InitialTemp == 0 {
		s.InitialTemp = 0.2
	}
	if s.FinalTemp == 0 {
		s.FinalTemp = 0.005
	}
	if s.Ranges == (Ranges{}) {
		s.Ranges = DefaultRanges()
	}
	return s
}

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
	s = s.withDefaults()
	rng := mathx.NewRNG(s.Seed)
	ec := &evalCounter{fn: fitness}

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	cur := s.Ranges.random(q, rng)
	curF := ec.eval(cur)
	best := scored{t: cur.Clone(), f: curF}

	cooling := math.Pow(s.FinalTemp/s.InitialTemp, 1/float64(s.Steps))
	temp := s.InitialTemp
	for step := 0; step < s.Steps; step++ {
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
		step := s.Ranges.LearningRate * rng.Range(0.25, 1)
		if rng.Bool(0.5) {
			step = -step
		}
		out.Alpha[i] = s.Ranges.clampAlpha(out.Alpha[i] + step)
	case 1: // jitter theta
		out.Theta = mathx.Clamp(out.Theta+rng.Range(-0.05, 0.05), s.Ranges.ThetaMin, s.Ranges.ThetaMax)
	default: // bump tolerance
		delta := 1
		if rng.Bool(0.5) {
			delta = -1
		}
		tol := out.MaxTolerance + delta
		if tol < s.Ranges.TolMin {
			tol = s.Ranges.TolMin
		}
		if tol > s.Ranges.TolMax {
			tol = s.Ranges.TolMax
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
	// Trials is the number of random genomes evaluated (default 300).
	Trials int
	// Ranges bounds the genome; zero value means DefaultRanges.
	Ranges Ranges
	// Seed drives the search's randomness.
	Seed uint64
}

func (r Random) withDefaults() Random {
	if r.Trials == 0 {
		r.Trials = 300
	}
	if r.Ranges == (Ranges{}) {
		r.Ranges = DefaultRanges()
	}
	return r
}

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
	r = r.withDefaults()
	rng := mathx.NewRNG(r.Seed)
	ec := &evalCounter{fn: fitness}
	trials := make([]window.Thresholds, r.Trials)
	for i := range trials {
		trials[i] = r.Ranges.random(q, rng)
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
