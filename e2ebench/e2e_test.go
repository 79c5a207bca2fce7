package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"dbcatcher/internal/mathx"
)

// smokeScale shrinks every segment so the workloads finish in seconds,
// also under the race detector; seedScale shrinks the seed test further.
const (
	smokeScale = 0.01
	seedScale  = 0.005
)

// benchmarkFile is the part of BENCHMARK.json the tests check against the
// code.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMain lets the test binary serve as the epoch boundaries' process,
// which runOnce starts from its own executable. Under the race detector
// every process sleeps a second at exit unless told not to, which would
// add eight seconds to each run.
func TestMain(m *testing.M) {
	if code, ok := boundaryChild(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	os.Exit(m.Run())
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricSpec, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricSpec
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestWorkloadsSmoke runs every workload traced at a small scale: the run's
// correctness checks pass, nothing fails, every metric BENCHMARK.json names
// is reported and finite, and the inputs exercise detection. It checks no
// timing, so the workloads run in parallel.
func TestWorkloadsSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runOnce(runConfig{w: w, seed: 1, seconds: 20, scale: smokeScale, trace: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("correctness checks failed: %q", res.Problems)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			var names []metricSpec
			for _, m := range f.EndToEnd {
				names = append(names, metricSpec{Name: m.Name, Unit: m.Unit})
			}
			for _, m := range f.PerLayer {
				names = append(names, metricSpec{Name: m.Name, Unit: m.Unit})
			}
			for _, want := range names {
				m, ok := res.Metrics[want.Name]
				switch {
				case !ok:
					t.Errorf("metric %s not reported", want.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("metric %s = %v", want.Name, m.Value)
				case m.Unit != want.Unit:
					t.Errorf("metric %s in %s, BENCHMARK.json says %s", want.Name, m.Unit, want.Unit)
				}
			}
			for _, name := range []string{"monitor.verdicts", "unit_ticks_per_s", "verdict_p50_ms", "read_p50_ms", "setup_s", "recover_s", "peak_rss_mb"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			if w.units > 1 {
				for _, name := range []string{"detect.explain_calls", "monitor.expansions", "incident.transitions"} {
					if res.Metrics[name].Value < 1 {
						t.Errorf("%s = %v: the input did not exercise detection", name, res.Metrics[name].Value)
					}
				}
			}
			if sum := res.Layers.ShareSum; math.Abs(sum-100) > 1 {
				t.Errorf("layer shares sum to %.2f%%", sum)
			}
		})
	}
}

// TestSeedsDiffer checks that the seed reaches the inputs: two seeds give
// different verdict streams, and both pass every correctness check.
func TestSeedsDiffer(t *testing.T) {
	t.Parallel()
	w, err := findWorkload("dashboard-32")
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, seed := range []uint64{1, 2} {
		res, err := runOnce(runConfig{w: w, seed: seed, seconds: 20, scale: seedScale, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("seed %d: correct %v, failed %d: %q", seed, res.Correct, res.Failed, res.Problems)
		}
		digests = append(digests, res.Digest)
	}
	if digests[0] == digests[1] {
		t.Errorf("seeds 1 and 2 produced the same verdict stream %s", digests[0])
	}
}

// TestFlatInputRejected checks the guard against replaying one aliased
// collector row: a constant stream is refused.
func TestFlatInputRejected(t *testing.T) {
	values := make([]float64, 100*stride)
	for i := range values {
		values[i] = float64(i % stride)
	}
	if err := checkNotFlat(values, make([]bool, 100)); err == nil {
		t.Error("a constant input passed the flat-input guard")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || mathx.Median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, mathx.Median(xs))
	}
}
