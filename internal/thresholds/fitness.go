package thresholds

import (
	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/fleet"
	"dbcatcher/internal/metrics"
	"dbcatcher/internal/window"
)

// Sample pairs a matrix source with its ground truth for fitness
// evaluation. Wrap the provider in detect.NewCachedProvider so that every
// genome evaluation after the first reuses the correlation matrices: the
// scores do not depend on the thresholds being searched.
type Sample struct {
	Provider detect.MatrixProvider
	Labels   *anomaly.Labels
}

// DetectorFitness builds the Fitness used by DBCatcher's online feedback
// module: run the detector with the candidate thresholds over the recent
// labelled units and score the F-Measure of the resulting verdicts.
func DetectorFitness(samples []Sample, flex window.FlexConfig) Fitness {
	return ParallelDetectorFitness(samples, flex, 1)
}

// ParallelDetectorFitness is DetectorFitness fanning one evaluation out
// across the labelled units: each unit's detection pass is independent, and
// the per-unit confusions merge in unit order, so the score is identical to
// the serial walk at any concurrency (<= 0 means GOMAXPROCS). The returned
// Fitness is safe for concurrent use when the sample providers are (a
// CachedProvider over a series provider is).
func ParallelDetectorFitness(samples []Sample, flex window.FlexConfig, concurrency int) Fitness {
	return func(t window.Thresholds) float64 {
		parts := make([]metrics.Confusion, len(samples))
		err := fleet.Each(len(samples), concurrency, func(i int) error {
			verdicts, _, err := detect.RunProvider(samples[i].Provider, detect.Config{
				Thresholds: t,
				Flex:       flex,
			})
			if err != nil {
				return err
			}
			part, err := detect.Evaluate(verdicts, samples[i].Labels)
			if err != nil {
				return err
			}
			parts[i] = part
			return nil
		})
		if err != nil {
			// An invalid genome scores zero rather than aborting the
			// search.
			return 0
		}
		var c metrics.Confusion
		for _, part := range parts {
			c.Merge(part)
		}
		return c.FMeasure()
	}
}
