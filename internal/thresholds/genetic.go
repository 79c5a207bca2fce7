package thresholds

import (
	"context"
	"sort"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
)

// GA is the genetic algorithm of Algorithm 2.
type GA struct {
	// Population is the number of individuals M (default 20).
	Population int
	// Generations is the iteration count N (default 15).
	Generations int
	// MutationProb is the mutation probability β (default 0.2).
	MutationProb float64
	// EvictFraction of the worst individuals is replaced each generation
	// by offspring (default 0.5).
	EvictFraction float64
	// Ranges bounds the genome; zero value means DefaultRanges.
	Ranges Ranges
	// Seed drives the search's randomness.
	Seed uint64
}

func (g GA) withDefaults() GA {
	if g.Population == 0 {
		g.Population = 24
	}
	if g.Generations == 0 {
		g.Generations = 20
	}
	if g.MutationProb == 0 {
		g.MutationProb = 0.2
	}
	if g.EvictFraction == 0 {
		g.EvictFraction = 0.5
	}
	if g.Ranges == (Ranges{}) {
		g.Ranges = DefaultRanges()
	}
	return g
}

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
	g = g.withDefaults()
	rng := mathx.NewRNG(g.Seed)
	ec := &evalCounter{fn: fitness}

	genomes := make([]window.Thresholds, g.Population)
	for i := range genomes {
		genomes[i] = g.Ranges.random(q, rng)
	}
	pop, err := scoreAllCtx(ctx, genomes, ec)
	if err != nil {
		return Result{Evaluations: ec.calls}, err
	}
	best := pop[0]
	for _, s := range pop[1:] {
		best = betterOf(best, s)
	}

	for gen := 0; gen < g.Generations; gen++ {
		// Retain the historically best genes (Algorithm 2 lines 5-8).
		for _, s := range pop {
			best = betterOf(best, s)
		}
		if err := ctx.Err(); err != nil {
			return Result{Best: best.t.Clone(), Fitness: best.f, Evaluations: ec.calls}, err
		}
		// Evict poor performers (line 9).
		sort.Slice(pop, func(i, j int) bool { return pop[i].f > pop[j].f })
		survivors := g.Population - int(g.EvictFraction*float64(g.Population))
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
		for len(pop)+len(brood) < g.Population {
			pa := pop[pick(probs, rng)].t
			pb := pop[pick(probs, rng)].t
			ca, cb := g.crossover(pa, pb, rng)
			g.mutate(&ca, rng)
			g.mutate(&cb, rng)
			brood = append(brood, ca)
			if len(pop)+len(brood) < g.Population {
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
	if !rng.Bool(g.MutationProb) {
		return
	}
	for i := range t.Alpha {
		if rng.Bool(0.5) {
			step := g.Ranges.LearningRate
			if rng.Bool(0.5) {
				step = -step
			}
			t.Alpha[i] = g.Ranges.clampAlpha(t.Alpha[i] + step)
		}
	}
	t.Theta = rng.Range(g.Ranges.ThetaMin, g.Ranges.ThetaMax)
	t.MaxTolerance = g.Ranges.TolMin + rng.Intn(g.Ranges.TolMax-g.Ranges.TolMin+1)
}
