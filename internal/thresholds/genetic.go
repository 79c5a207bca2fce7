package thresholds

import (
	"context"
	"sort"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
)

// GA is the genetic algorithm of Algorithm 2.
type GA struct {
	// Seed drives the search's randomness.
	Seed uint64
}

const (
	// population is the number of individuals M.
	population = 24
	// generations is the iteration count N.
	generations = 20
	// mutationProb is the mutation probability β.
	mutationProb = 0.2
	// evictFraction of the worst individuals is replaced each generation
	// by offspring.
	evictFraction = 0.5
)

// Name implements Searcher.
func (GA) Name() string { return "GA" }

// Search implements Algorithm 2: initialize random individuals, evaluate,
// retain the historical best, evict the poor performers, then breed
// replacements via fitness-proportional selection (Eq. 6), single-point
// crossover, and mutation with learning rate Δ.
func (g GA) Search(q int, fitness Fitness) Result {
	res, _ := g.SearchContext(context.Background(), q, fitness)
	return res
}

// SearchContext implements ContextSearcher: Search with cancellation
// observed before the initial scoring, at each generation boundary, and
// between individual fitness evaluations inside a batch.
func (g GA) SearchContext(ctx context.Context, q int, fitness Fitness) (Result, error) {
	rng := mathx.NewRNG(g.Seed)
	ec := &evalCounter{fn: fitness}

	genomes := make([]window.Thresholds, population)
	for i := range genomes {
		genomes[i] = searchRanges.random(q, rng)
	}
	pop, err := scoreAllCtx(ctx, genomes, ec)
	if err != nil {
		return Result{Evaluations: ec.calls}, err
	}
	best := pop[0]
	for _, s := range pop[1:] {
		best = betterOf(best, s)
	}

	for gen := 0; gen < generations; gen++ {
		// Retain the historically best genes (Algorithm 2 lines 5-8).
		for _, s := range pop {
			best = betterOf(best, s)
		}
		if err := ctx.Err(); err != nil {
			return Result{Best: best.t.Clone(), Fitness: best.f, Evaluations: ec.calls}, err
		}
		// Evict poor performers (line 9).
		sort.Slice(pop, func(i, j int) bool { return pop[i].f > pop[j].f })
		survivors := population - int(evictFraction*float64(population))
		if survivors < 2 {
			survivors = 2
		}
		pop = pop[:survivors]
		// Selection probabilities over survivors (Eq. 6).
		weights := make([]float64, len(pop))
		for i, s := range pop {
			weights[i] = s.f
		}
		probs := safeProb(weights)
		// Breed offspring to restore the population size (lines 10-12),
		// then evaluate the brood as one batch. The second child of the
		// final pair is still bred (its mutation draws stay in the RNG
		// stream) but dropped unevaluated when the population is full,
		// exactly as the incremental loop did.
		brood := genomes[:0]
		for len(pop)+len(brood) < population {
			pa := pop[pick(probs, rng)].t
			pb := pop[pick(probs, rng)].t
			ca, cb := g.crossover(pa, pb, rng)
			g.mutate(&ca, rng)
			g.mutate(&cb, rng)
			brood = append(brood, ca)
			if len(pop)+len(brood) < population {
				brood = append(brood, cb)
			}
		}
		broodScored, err := scoreAllCtx(ctx, brood, ec)
		if err != nil {
			return Result{Best: best.t.Clone(), Fitness: best.f, Evaluations: ec.calls}, err
		}
		pop = append(pop, broodScored...)
	}
	for _, s := range pop {
		best = betterOf(best, s)
	}
	return Result{Best: best.t.Clone(), Fitness: best.f, Evaluations: ec.calls}, nil
}

// scoreAllCtx evaluates a batch of genomes and pairs each with its
// fitness, in genome order. On cancellation the partial scores are
// dropped.
func scoreAllCtx(ctx context.Context, genomes []window.Thresholds, ec *evalCounter) ([]scored, error) {
	fs, err := ec.evalAllCtx(ctx, genomes)
	if err != nil {
		return nil, err
	}
	out := make([]scored, len(genomes))
	for i, t := range genomes {
		out[i] = scored{t: t, f: fs[i]}
	}
	return out, nil
}

// crossover swaps the α tails of two parents at a random cut point M in
// (0, N) and draws θ and the tolerance of each child randomly from the two
// parents (§III-D crossover strategy).
func (g GA) crossover(a, b window.Thresholds, rng *mathx.RNG) (window.Thresholds, window.Thresholds) {
	q := len(a.Alpha)
	ca := a.Clone()
	cb := b.Clone()
	if q > 1 {
		cut := 1 + rng.Intn(q-1)
		for i := cut; i < q; i++ {
			ca.Alpha[i], cb.Alpha[i] = cb.Alpha[i], ca.Alpha[i]
		}
	}
	if rng.Bool(0.5) {
		ca.Theta, cb.Theta = cb.Theta, ca.Theta
	}
	if rng.Bool(0.5) {
		ca.MaxTolerance, cb.MaxTolerance = cb.MaxTolerance, ca.MaxTolerance
	}
	return ca, cb
}

// mutate perturbs an individual with probability β: each α_i randomly
// steps ±Δ, and θ and the tolerance are regenerated within their ranges
// (§III-D mutation strategy).
func (g GA) mutate(t *window.Thresholds, rng *mathx.RNG) {
	if !rng.Bool(mutationProb) {
		return
	}
	for i := range t.Alpha {
		if rng.Bool(0.5) {
			step := searchRanges.LearningRate
			if rng.Bool(0.5) {
				step = -step
			}
			t.Alpha[i] = searchRanges.clampAlpha(t.Alpha[i] + step)
		}
	}
	t.Theta = rng.Range(searchRanges.ThetaMin, searchRanges.ThetaMax)
	t.MaxTolerance = searchRanges.TolMin + rng.Intn(searchRanges.TolMax-searchRanges.TolMin+1)
}
