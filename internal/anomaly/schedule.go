package anomaly

import (
	"sort"

	"dbcatcher/internal/mathx"
)

// ScheduleConfig controls random event generation.
type ScheduleConfig struct {
	// Ticks is the series length being scheduled against.
	Ticks int
	// Databases is the number of databases in the unit.
	Databases int
	// TargetRatio is the desired fraction of abnormal ticks (Table III
	// reports 3.11-4.21%).
	TargetRatio float64
}

const (
	// minLength and maxLength bound episode durations in ticks (30 s to
	// ~3.3 min at 5 s ticks).
	minLength, maxLength = 6, 40
	// gapTicks keeps episodes separated so each is individually
	// observable.
	gapTicks = 30
)

// scheduledTypes are the anomaly classes GenerateSchedule draws, in Type
// order. The paper's evaluation assumes a single abnormal database per
// episode (§II-C), so UnitOutage is left out.
var scheduledTypes = func() []Type {
	var types []Type
	for i := 0; i < NumTypes; i++ {
		if Type(i) != UnitOutage {
			types = append(types, Type(i))
		}
	}
	return types
}()

// GenerateSchedule draws a random non-overlapping set of events reaching
// approximately TargetRatio abnormal ticks. Events never touch the first
// maxLength ticks so that detectors always have a clean warmup.
func GenerateSchedule(cfg ScheduleConfig, rng *mathx.RNG) []Event {
	if cfg.Ticks <= 0 || cfg.Databases <= 0 || cfg.TargetRatio <= 0 {
		return nil
	}
	budget := int(cfg.TargetRatio * float64(cfg.Ticks))
	var events []Event
	occupied := make([]bool, cfg.Ticks)
	warmup := maxLength
	attempts := 0
	used := 0
	for used < budget && attempts < 50*cfg.Ticks {
		attempts++
		length := minLength + rng.Intn(maxLength-minLength+1)
		if length > budget-used && budget-used >= minLength {
			length = budget - used
		}
		if cfg.Ticks-warmup-length <= 0 {
			break
		}
		start := warmup + rng.Intn(cfg.Ticks-warmup-length)
		if overlaps(occupied, start-gapTicks, start+length+gapTicks) {
			continue
		}
		e := Event{
			Type:      scheduledTypes[rng.Intn(len(scheduledTypes))],
			DB:        rng.Intn(cfg.Databases),
			Start:     start,
			Length:    length,
			Magnitude: rng.Range(0.8, 2.5),
		}
		if e.Type == Stall {
			e.Magnitude = rng.Range(0.6, 0.95)
		}
		events = append(events, e)
		markOccupied(occupied, start, start+length)
		used += length
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	return events
}

func overlaps(occ []bool, lo, hi int) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > len(occ) {
		hi = len(occ)
	}
	for i := lo; i < hi; i++ {
		if occ[i] {
			return true
		}
	}
	return false
}

func markOccupied(occ []bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		occ[i] = true
	}
}
