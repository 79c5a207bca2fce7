package thresholds

import (
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
)

// TestSerialEvalOrderPreserved pins the backstop for order-dependent
// fitness closures: the searchers call the fitness strictly in genome
// order, exactly like the historical incremental searchers.
func TestSerialEvalOrderPreserved(t *testing.T) {
	calls := 0
	counting := func(window.Thresholds) float64 {
		calls++
		return float64(calls)
	}
	res := Random{Seed: 1}.Search(3, counting)
	if res.Evaluations != randomTrials || calls != randomTrials {
		t.Fatalf("evaluations = %d, calls = %d, want %d", res.Evaluations, calls, randomTrials)
	}
	// Later trials score strictly higher under this closure, so the best
	// must be the last trial's fitness — only true if order is preserved.
	if res.Fitness != randomTrials {
		t.Fatalf("best fitness = %v, want %d (order-dependent closure)", res.Fitness, randomTrials)
	}
}

// TestParallelDetectorFitnessMatchesSerial: the per-unit fan-out must score
// every genome exactly like the serial walk.
func TestParallelDetectorFitnessMatchesSerial(t *testing.T) {
	var samples []Sample
	for i := 0; i < 3; i++ {
		u, err := cluster.Simulate(cluster.Config{
			Name: "u", Ticks: 300, Seed: uint64(20 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
			Ticks: 300, Databases: 5, TargetRatio: 0.08,
		}, mathx.NewRNG(uint64(30+i)))
		labels, err := anomaly.Inject(u, events, mathx.NewRNG(uint64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, Sample{
			Provider: detect.NewCachedProvider(detect.NewProvider(u.Series, nil, nil)),
			Labels:   labels,
		})
	}
	flex := window.DefaultFlexConfig()
	serial := DetectorFitness(samples, flex)
	parallel := ParallelDetectorFitness(samples, flex, 4)
	rng := mathx.NewRNG(5)
	r := DefaultRanges()
	for i := 0; i < 5; i++ {
		genome := r.random(14, rng)
		s, p := serial(genome), parallel(genome)
		if s != p {
			t.Fatalf("genome %d: serial %v != parallel %v", i, s, p)
		}
	}
}
