package thresholds

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// quadraticFitness rewards thresholds near a hidden optimum; a clean
// landscape for testing the searchers.
func quadraticFitness(alphaOpt, thetaOpt float64, tolOpt int) Fitness {
	return func(t window.Thresholds) float64 {
		score := 1.0
		for _, a := range t.Alpha {
			score -= (a - alphaOpt) * (a - alphaOpt)
		}
		score -= 2 * (t.Theta - thetaOpt) * (t.Theta - thetaOpt)
		d := float64(t.MaxTolerance - tolOpt)
		score -= 0.01 * d * d
		if score < 0 {
			score = 0
		}
		return score
	}
}

// θ, tolerance and Δ are §III-D's; the α floor is lowered from the
// paper's 0.6 (see DefaultRanges).
func TestDefaultRangesMatchPaper(t *testing.T) {
	r := DefaultRanges()
	if r.AlphaMin != 0.45 || r.AlphaMax != 0.8 {
		t.Errorf("default alpha range [%v, %v], want [0.45, 0.8]", r.AlphaMin, r.AlphaMax)
	}
	if r.ThetaMin != 0.1 || r.ThetaMax != 0.3 {
		t.Errorf("theta range [%v, %v], want [0.1, 0.3]", r.ThetaMin, r.ThetaMax)
	}
	if r.TolMin != 0 || r.TolMax != 3 {
		t.Errorf("tolerance range [%d, %d], want [0, 3]", r.TolMin, r.TolMax)
	}
	if r.LearningRate != 0.1 {
		t.Errorf("learning rate %v, want 0.1", r.LearningRate)
	}
}

func TestRandomGenomeWithinRanges(t *testing.T) {
	r := DefaultRanges()
	rng := mathx.NewRNG(1)
	for i := 0; i < 200; i++ {
		g := r.random(5, rng)
		for _, a := range g.Alpha {
			if a < r.AlphaMin || a >= r.AlphaMax {
				t.Fatalf("alpha %v out of range", a)
			}
		}
		if g.Theta < r.ThetaMin || g.Theta >= r.ThetaMax {
			t.Fatalf("theta %v out of range", g.Theta)
		}
		if g.MaxTolerance < 0 || g.MaxTolerance > 3 {
			t.Fatalf("tolerance %d out of range", g.MaxTolerance)
		}
	}
}

func TestSearchersFindQuadraticOptimum(t *testing.T) {
	fitness := quadraticFitness(0.7, 0.2, 2)
	searchers := []Searcher{
		GA{Seed: 1},
		SAA{Seed: 1},
		Random{Seed: 1},
	}
	for _, s := range searchers {
		res := s.Search(4, fitness)
		if res.Fitness < 0.95 {
			t.Errorf("%s reached fitness %v, want >= 0.95", s.Name(), res.Fitness)
		}
		if res.Evaluations == 0 {
			t.Errorf("%s reported no evaluations", s.Name())
		}
		for _, a := range res.Best.Alpha {
			if math.Abs(a-0.7) > 0.12 {
				t.Errorf("%s alpha %v far from optimum 0.7", s.Name(), a)
			}
		}
	}
}

// TestSearchersPinned pins what each searcher finds at its default
// population, schedule, trial count and ranges on the quadratic landscape:
// a SHA-256 digest of the result for seeds 1-3. Floats are pinned on amd64
// only, as in TestVerdictDigests.
func TestSearchersPinned(t *testing.T) {
	want := map[string]string{
		"GA/1":     "9542b8650f9bffffc5408ec662ef4b950f4eb1580a04d6e2b4ca30da76248bef",
		"GA/2":     "7ade7b1ecb5d88ff53c061b4046173d6fa847fbc25fe7ca888d7b5f6ce26b3fd",
		"GA/3":     "5ea83368661032c3034a084cff6f66a8721bc4503321199dd9d15665f10cd528",
		"SAA/1":    "6df7ba56d21377a91af8df5e25024c9e741f1eda110ac46999a4849ef60193e6",
		"SAA/2":    "943385607241e2b0a52bef9e92026f9820ffffd68ee5dacfa22b312c531ae529",
		"SAA/3":    "a1064b51cec3c1be389c65620dc906c38ba29deed6bb5193e077adeb95ee09c3",
		"Random/1": "17d1d224fffb31c42f00b852af13569cb94344f6da9cbf36d292fbf9e911a885",
		"Random/2": "e3c2ca1ff3bc7487906092fd3e7f22b0c9a1d973aa6a04614dbfb46a3c6a316c",
		"Random/3": "9720174414bfdb66c122d764cb6ddf064773c4df230948287dfccce159470eb4",
	}
	fitness := quadraticFitness(0.7, 0.2, 2)
	for seed := uint64(1); seed <= 3; seed++ {
		for _, s := range []Searcher{GA{Seed: seed}, SAA{Seed: seed}, Random{Seed: seed}} {
			res := s.Search(4, fitness)
			name := fmt.Sprintf("%s/%d", s.Name(), seed)
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v %v %v %d %d",
				res.Fitness, res.Best.Alpha, res.Best.Theta, res.Best.MaxTolerance, res.Evaluations))))
			if runtime.GOARCH == "amd64" && got != want[name] {
				t.Errorf("%s: result digest %s, pinned %s", name, got, want[name])
			}
		}
	}
}

func TestGADeterministicGivenSeed(t *testing.T) {
	fitness := quadraticFitness(0.7, 0.2, 2)
	a := GA{Seed: 7}.Search(3, fitness)
	b := GA{Seed: 7}.Search(3, fitness)
	if a.Fitness != b.Fitness {
		t.Fatal("GA not deterministic")
	}
	for i := range a.Best.Alpha {
		if a.Best.Alpha[i] != b.Best.Alpha[i] {
			t.Fatal("GA genomes differ between identical seeds")
		}
	}
}

func TestGAKeepsHistoricalBest(t *testing.T) {
	// A fitness that rewards exactly one rare genome: once seen, the GA
	// must never lose it.
	callCount := 0
	fitness := func(th window.Thresholds) float64 {
		callCount++
		if callCount == 5 {
			return 0.99 // the 5th evaluated genome is a one-off jackpot
		}
		return 0.1
	}
	res := GA{Seed: 3}.Search(3, fitness)
	if res.Fitness != 0.99 {
		t.Fatalf("GA lost the historical best: %v", res.Fitness)
	}
}

func TestGACrossoverSwapsTails(t *testing.T) {
	g := GA{}
	rng := mathx.NewRNG(5)
	a := window.Thresholds{Alpha: []float64{1, 1, 1, 1}, Theta: 0.1, MaxTolerance: 0}
	b := window.Thresholds{Alpha: []float64{2, 2, 2, 2}, Theta: 0.3, MaxTolerance: 3}
	ca, cb := g.crossover(a, b, rng)
	// Each child's alpha vector must be a prefix of one parent and a
	// suffix of the other.
	onesThenTwos := 0
	for _, v := range ca.Alpha {
		if v == 2 {
			onesThenTwos++
		}
	}
	if onesThenTwos == 0 || onesThenTwos == 4 {
		t.Fatalf("crossover produced no mix: %v", ca.Alpha)
	}
	// Parents unchanged.
	if a.Alpha[3] != 1 || b.Alpha[3] != 2 {
		t.Fatal("crossover mutated parents")
	}
	_ = cb
}

func TestMutationRespectsBounds(t *testing.T) {
	// A mutation always redraws θ; one skipped at probability 1-β leaves
	// it. Check until 200 genomes were mutated.
	rng := mathx.NewRNG(6)
	for i, mutated := 0, 0; mutated < 200; i++ {
		if i == 10000 {
			t.Fatalf("%d mutations in %d calls", mutated, i)
		}
		th := searchRanges.random(4, rng)
		theta := th.Theta
		GA{}.mutate(&th, rng)
		if th.Theta == theta {
			continue
		}
		mutated++
		for _, a := range th.Alpha {
			if a < 0 || a > 1 {
				t.Fatalf("mutated alpha %v outside [0,1]", a)
			}
		}
		if th.Theta < searchRanges.ThetaMin || th.Theta >= searchRanges.ThetaMax {
			t.Fatalf("mutated theta %v out of range", th.Theta)
		}
		if th.MaxTolerance < 0 || th.MaxTolerance > 3 {
			t.Fatalf("mutated tolerance %d out of range", th.MaxTolerance)
		}
	}
}

func TestSAAAcceptance(t *testing.T) {
	rng := mathx.NewRNG(7)
	// Better candidates always accepted.
	if !accept(0.5, 0.6, 0.1, rng) {
		t.Fatal("better candidate rejected")
	}
	// Much worse candidate at zero temperature: rejected.
	if accept(0.9, 0.1, 0, rng) {
		t.Fatal("worse candidate accepted at zero temperature")
	}
	// At high temperature, worse candidates are sometimes accepted.
	accepts := 0
	for i := 0; i < 1000; i++ {
		if accept(0.6, 0.55, 0.5, rng) {
			accepts++
		}
	}
	if accepts == 0 || accepts == 1000 {
		t.Fatalf("high-temp acceptance should be probabilistic, got %d/1000", accepts)
	}
}

func TestSafeProb(t *testing.T) {
	p := safeProb([]float64{1, 3})
	if math.Abs(p[0]-0.25) > 1e-12 || math.Abs(p[1]-0.75) > 1e-12 {
		t.Fatalf("probs = %v", p)
	}
	// All-zero fitness falls back to uniform.
	p = safeProb([]float64{0, 0, 0, 0})
	for _, v := range p {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("uniform fallback = %v", p)
		}
	}
}

func TestDetectorFitnessImprovesOverBadThresholds(t *testing.T) {
	// Build a small labelled unit, then verify that (a) fitness is
	// computable, (b) the GA finds thresholds at least as good as an
	// intentionally terrible genome.
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 600, Seed: 9, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
		Ticks: 600, Databases: 5, TargetRatio: 0.06,
	}, mathx.NewRNG(10))
	labels, err := anomaly.Inject(u, events, mathx.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	provider := detect.NewCachedProvider(detect.NewProvider(u.Series, nil, nil))
	fitness := DetectorFitness([]Sample{{Provider: provider, Labels: labels}}, window.DefaultFlexConfig())

	// A terrible genome: alpha = 1 makes everything level-1 (all windows
	// abnormal -> precision collapses).
	bad := window.Thresholds{Alpha: make([]float64, 14), Theta: 0.0, MaxTolerance: 0}
	for i := range bad.Alpha {
		bad.Alpha[i] = 1.0
	}
	badF := fitness(bad)

	res := GA{Seed: 12}.Search(14, fitness)
	if res.Fitness <= badF {
		t.Fatalf("GA fitness %v should beat degenerate %v", res.Fitness, badF)
	}
	if res.Fitness <= 0.3 {
		t.Fatalf("GA fitness %v suspiciously low", res.Fitness)
	}
	// The matrix cache must actually be hit across evaluations.
	if provider.Hits == 0 {
		t.Fatal("cached provider never hit")
	}
}

func TestDetectorFitnessInvalidGenome(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{Name: "u", Ticks: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	labels := anomaly.NewLabels(100)
	fitness := DetectorFitness([]Sample{{
		Provider: detect.NewProvider(u.Series, nil, nil),
		Labels:   labels,
	}}, window.DefaultFlexConfig())
	// Wrong alpha count -> invalid genome -> fitness 0, no panic.
	if got := fitness(window.Thresholds{Alpha: []float64{0.5}}); got != 0 {
		t.Fatalf("invalid genome fitness = %v, want 0", got)
	}
}
