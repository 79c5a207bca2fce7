package relearn

import (
	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/thresholds"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/window"
)

// SampleSource materializes a labelled fitness sample from one DBA
// judgment record. Implementations must be safe for concurrent use: the
// retrain goroutine calls Sample while the live feeder keeps pushing.
type SampleSource interface {
	// Sample returns the record's labelled sample, or false when the
	// record's window can no longer be materialized (evicted from the
	// retained history, or too short to judge).
	Sample(rec feedback.Record) (thresholds.Sample, bool)
}

// SeriesSource materializes samples from a fully retained unit series
// (replay and simulation modes, where the whole stream is in memory).
type SeriesSource struct {
	U *timeseries.UnitSeries
	// Flex bounds the per-sample span; zero value means the default.
	Flex window.FlexConfig
}

// Sample implements SampleSource.
func (s SeriesSource) Sample(rec feedback.Record) (thresholds.Sample, bool) {
	flex := s.Flex
	if flex == (window.FlexConfig{}) {
		flex = window.DefaultFlexConfig()
	}
	end := rec.Start + flex.MaxWindow()
	if end > s.U.Len() {
		end = s.U.Len()
	}
	if rec.Start < 0 || end-rec.Start < flex.Initial {
		return thresholds.Sample{}, false
	}
	sliced, err := s.U.SliceRange(rec.Start, end)
	if err != nil {
		return thresholds.Sample{}, false
	}
	return labelled(sliced, rec, end-rec.Start), true
}

// labelled pairs a rebased window with its ground truth: the ticks the DBA
// actually judged ([0, rec.Size) after rebasing) carry the marking, the
// context beyond them is unlabelled. The provider is cached so that every
// genome evaluation after the first reuses the correlation matrices.
func labelled(u *timeseries.UnitSeries, rec feedback.Record, n int) thresholds.Sample {
	labels := anomaly.NewLabels(n)
	for i := 0; i < rec.Size && i < n; i++ {
		labels.Point[i] = rec.Actual
	}
	return thresholds.Sample{
		Provider: detect.NewCachedProvider(detect.NewProvider(u, nil, nil)),
		Labels:   labels,
	}
}

// Materialize converts judgment records into fitness samples, dropping
// records whose windows can no longer be recovered. It reports how many
// records were dropped.
func Materialize(src SampleSource, recs []feedback.Record) (samples []thresholds.Sample, dropped int) {
	samples = make([]thresholds.Sample, 0, len(recs))
	for _, r := range recs {
		if s, ok := src.Sample(r); ok {
			samples = append(samples, s)
		} else {
			dropped++
		}
	}
	return samples, dropped
}
