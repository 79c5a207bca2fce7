package dbcatcher

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`) and cover the design
// ablations called out in DESIGN.md. The experiment benches execute the
// same runners as cmd/experiments at quick scale with a single run; their
// reported time is the cost of regenerating that artifact. The core
// micro-benchmarks that BENCH_core.json gates (kcd/*, build_matrices/*,
// detect_run/* and the rest) are defined once, in cmd/bench.

import (
	"fmt"
	"testing"

	"dbcatcher/internal/baselines"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/experiments"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/thresholds"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// --- Core-algorithm benches and ablations -------------------------------

func randomPair(n int, seed uint64) ([]float64, []float64) {
	rng := mathx.NewRNG(seed)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Norm()
		y[i] = 0.7*x[i] + 0.3*rng.Norm()
	}
	return x, y
}

// BenchmarkKCDDirect measures the O(n·m) delay scan at several window
// sizes.
func BenchmarkKCDDirect(b *testing.B) {
	for _, n := range []int{20, 60, 240, 1024} {
		x, y := randomPair(n, 1)
		opts := correlate.Options{MaxDelayFraction: 0.5, Normalize: true}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				correlate.KCD(x, y, opts)
			}
		})
	}
}

// BenchmarkKCDDelayScan ablates the delay budget: the paper's full n/2
// scan vs the detection default capped at ±4 points.
func BenchmarkKCDDelayScan(b *testing.B) {
	x, y := randomPair(60, 2)
	for _, c := range []struct {
		name string
		opts correlate.Options
	}{
		{"full-n/2", correlate.Options{MaxDelayFraction: 0.5, Normalize: true}},
		{"capped-4", correlate.DetectionOptions()},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				correlate.KCD(x, y, c.opts)
			}
		})
	}
}

// benchUnit simulates one healthy unit for detection benches.
func benchUnit(b *testing.B, ticks int) *cluster.Unit {
	b.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "bench", Ticks: ticks, Seed: 9, Profile: workload.TencentIrregular,
	})
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// BenchmarkOnlinePush measures the streaming path: one 5-second sample
// through the data processing module and judge.
func BenchmarkOnlinePush(b *testing.B) {
	u := benchUnit(b, 1200)
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
	}, kpi.Count, 5)
	if err != nil {
		b.Fatal(err)
	}
	sample := make([][]float64, kpi.Count)
	for k := range sample {
		sample[k] = make([]float64, 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick := i % 1200
		for k := 0; k < kpi.Count; k++ {
			for d := 0; d < 5; d++ {
				sample[k][d] = u.Series.Data[k][d].At(tick)
			}
		}
		if _, err := o.Push(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGAThresholdSearch measures one adaptive-threshold relearning
// (Algorithm 2) over a cached labelled unit.
func BenchmarkGAThresholdSearch(b *testing.B) {
	u := benchUnit(b, 600)
	labels := benchLabels(b, u)
	provider := detect.NewCachedProvider(detect.NewProvider(u.Series, nil, nil))
	fitness := thresholds.DetectorFitness([]thresholds.Sample{
		{Provider: provider, Labels: labels},
	}, window.DefaultFlexConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		thresholds.GA{Seed: uint64(i + 1)}.Search(kpi.Count, fitness)
	}
}

func benchLabels(b *testing.B, u *cluster.Unit) *Labels {
	b.Helper()
	labels, err := InjectAnomalies(u, []AnomalyEvent{
		{Type: Stall, DB: 2, Start: 200, Length: 40, Magnitude: 0.9},
		{Type: Spike, DB: 1, Start: 400, Length: 30, Magnitude: 2},
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	return labels
}

// BenchmarkBaselineScorers measures per-series scoring cost of each
// baseline detector.
func BenchmarkBaselineScorers(b *testing.B) {
	u := benchUnit(b, 1200)
	series := u.Series.Data[kpi.RequestsPerSecond][1].Values
	multi := make([][]float64, kpi.Count)
	for k := range multi {
		multi[k] = u.Series.Data[k][1].Values
	}
	srcnn := baselines.NewSRCNN(1)
	srcnn.Fit([][]float64{series})
	omni := baselines.NewOmniAnomaly(1)
	omni.SamplesPerEpoch = 200
	omni.Fit(multi)
	js := baselines.NewJumpStarter(1)
	js.Fit(nil)

	b.Run("FFT", func(b *testing.B) {
		d := baselines.FFTDetector{}
		for i := 0; i < b.N; i++ {
			d.Scores(series)
		}
	})
	b.Run("SR", func(b *testing.B) {
		d := baselines.SRDetector{}
		for i := 0; i < b.N; i++ {
			d.Scores(series)
		}
	})
	b.Run("SR-CNN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			srcnn.Scores(series)
		}
	})
	b.Run("OmniAnomaly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			omni.ScoresMulti(multi)
		}
	})
	b.Run("JumpStarter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			js.ScoresMulti(multi)
		}
	})
}

// --- Experiment regenerators (one bench per table/figure) ---------------

// benchConfig is the quick-scale single-run configuration the experiment
// benches execute.
func benchConfig(seed uint64) experiments.Config {
	return experiments.Config{Runs: 1, Seed: seed}
}

func runExperimentBench(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, benchConfig(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates the indicator/correlation-type validation.
func BenchmarkTableII(b *testing.B) { runExperimentBench(b, "tableII") }

// BenchmarkTableIII regenerates the dataset statistics table.
func BenchmarkTableIII(b *testing.B) { runExperimentBench(b, "tableIII") }

// BenchmarkFigure3 regenerates the UKPIC correlation matrices.
func BenchmarkFigure3(b *testing.B) { runExperimentBench(b, "figure3") }

// BenchmarkFigure5 regenerates the fluctuation-vs-window-length study.
func BenchmarkFigure5(b *testing.B) { runExperimentBench(b, "figure5") }

// BenchmarkFigure8 regenerates the mixed-dataset comparison (and with it
// Tables V and VI).
func BenchmarkFigure8(b *testing.B) { runExperimentBench(b, "figure8") }

// BenchmarkFigure9 regenerates the irregular-dataset comparison (and
// Table VII).
func BenchmarkFigure9(b *testing.B) { runExperimentBench(b, "figure9") }

// BenchmarkFigure10 regenerates the periodic-dataset comparison (and
// Table VIII).
func BenchmarkFigure10(b *testing.B) { runExperimentBench(b, "figure10") }

// BenchmarkTableIX regenerates the workload-drift retraining times.
func BenchmarkTableIX(b *testing.B) { runExperimentBench(b, "tableIX") }

// BenchmarkTableX regenerates the correlation-measurement ablation
// (MM-Pearson / MM-DTW / MM-KCD / AMM-KCD).
func BenchmarkTableX(b *testing.B) { runExperimentBench(b, "tableX") }

// BenchmarkFigure11 regenerates the GA vs SAA vs random-search comparison.
func BenchmarkFigure11(b *testing.B) { runExperimentBench(b, "figure11") }

// BenchmarkComponentTime regenerates the §IV-D4 component-time split and
// the 100 MB / 120 h projection.
func BenchmarkComponentTime(b *testing.B) { runExperimentBench(b, "componenttime") }

// BenchmarkDiagnosis regenerates the diagnosis-accuracy extension table.
func BenchmarkDiagnosis(b *testing.B) { runExperimentBench(b, "diagnosis") }

// BenchmarkHybrid regenerates the ensemble extension table.
func BenchmarkHybrid(b *testing.B) { runExperimentBench(b, "hybrid") }
