package baselines

import (
	"math"
	"testing"

	"dbcatcher/internal/mathx"
)

// spikySeries builds a smooth sine with injected spikes at the given
// indices.
func spikySeries(n int, spikes ...int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 10 + 3*math.Sin(2*math.Pi*float64(i)/40)
	}
	for _, s := range spikes {
		x[s] *= 3
	}
	return x
}

// assertSpikesRank checks that the injected spike points receive higher
// scores than the typical point.
func assertSpikesRank(t *testing.T, name string, scores []float64, spikes []int) {
	t.Helper()
	med := mathx.Median(scores)
	for _, s := range spikes {
		if scores[s] <= med {
			t.Errorf("%s: spike at %d scored %v, median %v", name, s, scores[s], med)
		}
	}
	// Spikes should be among the top scores.
	top := mathx.Quantile(scores, 0.95)
	hits := 0
	for _, s := range spikes {
		if scores[s] >= top {
			hits++
		}
	}
	if hits == 0 {
		t.Errorf("%s: no spike reached the top-5%% scores", name)
	}
}

func TestFFTDetectorFindsSpikes(t *testing.T) {
	spikes := []int{100, 201, 333}
	x := spikySeries(512, spikes...)
	scores := FFTDetector{}.Scores(x)
	if len(scores) != 512 {
		t.Fatalf("score length %d", len(scores))
	}
	assertSpikesRank(t, "FFT", scores, spikes)
}

func TestSRDetectorFindsSpikes(t *testing.T) {
	spikes := []int{80, 222, 400}
	x := spikySeries(512, spikes...)
	scores := SRDetector{}.Scores(x)
	assertSpikesRank(t, "SR", scores, spikes)
}

func TestScorersHandleDegenerateInput(t *testing.T) {
	for _, s := range []PointScorer{FFTDetector{}, SRDetector{}, NewSRCNN(1)} {
		if got := s.Scores(nil); got != nil {
			t.Errorf("%s: nil input should give nil", s.Name())
		}
		short := s.Scores([]float64{1, 2, 3})
		if len(short) != 3 {
			t.Errorf("%s: short input length mismatch", s.Name())
		}
		constant := s.Scores(make([]float64, 64))
		for _, v := range constant {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: NaN/Inf on constant input", s.Name())
			}
		}
	}
}

func TestNormalizeScores(t *testing.T) {
	s := normalizeScores([]float64{1, 1, 1, 1, 10})
	for i := 0; i < 4; i++ {
		if s[i] != 0 {
			t.Fatalf("typical point score %v, want 0", s[i])
		}
	}
	if s[4] <= 0 {
		t.Fatal("outlier should score positive")
	}
	if got := normalizeScores(nil); len(got) != 0 {
		t.Fatal("empty input")
	}
}

func TestSRCNNTrainsAndDetects(t *testing.T) {
	// Train on smooth series; SR-CNN must then rank injected spikes high.
	rng := mathx.NewRNG(5)
	var normal [][]float64
	for i := 0; i < 6; i++ {
		x := make([]float64, 300)
		for j := range x {
			x[j] = 20 + 5*math.Sin(2*math.Pi*float64(j)/50) + rng.Norm()*0.3
		}
		normal = append(normal, x)
	}
	m := NewSRCNN(7)
	m.Fit(normal)
	if !m.ready {
		t.Fatal("model not ready after Fit")
	}
	spikes := []int{120, 240}
	x := spikySeries(400, spikes...)
	scores := m.Scores(x)
	assertSpikesRank(t, "SR-CNN", scores, spikes)
}

func TestSRCNNUnfittedFallsBack(t *testing.T) {
	m := NewSRCNN(1)
	spikes := []int{100}
	scores := m.Scores(spikySeries(256, spikes...))
	assertSpikesRank(t, "SR-CNN-unfitted", scores, spikes)
}

func TestExtrapolate(t *testing.T) {
	// A rising line extrapolates upward.
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	if got := extrapolate(x); got <= 7 {
		t.Fatalf("extrapolate = %v, want > 7", got)
	}
	if got := extrapolate([]float64{5}); got != 5 {
		t.Fatalf("short series extrapolation = %v", got)
	}
}
