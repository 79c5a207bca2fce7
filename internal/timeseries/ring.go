package timeseries

import "math"

// Ring is a fixed-capacity ring buffer of float64 observations. The
// monitoring data-processing module keeps one Ring per (KPI, database) pair;
// when full, the oldest point is overwritten so the buffer always holds the
// most recent Cap() observations.
//
// Real collectors drop points: a tick can arrive with no value for this
// (KPI, database) cell. The ring records such holes explicitly — a gap
// occupies a slot (so absolute tick arithmetic stays valid) but is marked,
// letting downstream consumers skip or interpolate it instead of judging
// garbage. Gap slots store NaN; pushing NaN marks a gap automatically.
//
// Ring is not safe for concurrent use; the monitor serializes access.
type Ring struct {
	buf   []float64
	gap   []bool
	head  int // index of the oldest element
	count int
	gaps  int // gap entries currently stored
}

// NewRing returns a ring buffer with the given capacity (must be > 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("timeseries: ring capacity must be positive")
	}
	return &Ring{buf: make([]float64, capacity), gap: make([]bool, capacity)}
}

// Cap returns the fixed capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the number of stored observations (<= Cap).
func (r *Ring) Len() int { return r.count }

// GapCount returns how many of the stored observations are gaps.
func (r *Ring) GapCount() int { return r.gaps }

// Push appends v, evicting the oldest observation when full. A NaN value is
// recorded as a gap. It reports whether an eviction occurred.
func (r *Ring) Push(v float64) (evicted bool) {
	return r.push(v, math.IsNaN(v))
}

// PushGap appends an explicit gap marker (a dropped collection point),
// evicting the oldest observation when full.
func (r *Ring) PushGap() (evicted bool) {
	return r.push(math.NaN(), true)
}

func (r *Ring) push(v float64, gap bool) (evicted bool) {
	if r.count < len(r.buf) {
		i := (r.head + r.count) % len(r.buf)
		r.buf[i] = v
		r.gap[i] = gap
		if gap {
			r.gaps++
		}
		r.count++
		return false
	}
	if r.gap[r.head] {
		r.gaps--
	}
	r.buf[r.head] = v
	r.gap[r.head] = gap
	if gap {
		r.gaps++
	}
	r.head = (r.head + 1) % len(r.buf)
	return true
}

// At returns the i-th oldest observation (0 = oldest). Gap slots read NaN.
func (r *Ring) At(i int) float64 {
	if i < 0 || i >= r.count {
		panic("timeseries: ring index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// IsGap reports whether the i-th oldest observation (0 = oldest) is a
// dropped collection point.
func (r *Ring) IsGap(i int) bool {
	if i < 0 || i >= r.count {
		panic("timeseries: ring index out of range")
	}
	return r.gap[(r.head+i)%len(r.buf)]
}

// CopyRange copies observations [start, start+len(dst)) (0 = oldest stored)
// into dst, gap slots as NaN, and returns how many of them are gaps.
func (r *Ring) CopyRange(dst []float64, start int) (gaps int) {
	n := len(dst)
	if start < 0 || start+n > r.count {
		panic("timeseries: ring range out of bounds")
	}
	// The range is at most two contiguous runs of the backing array.
	i := (r.head + start) % len(r.buf)
	first := copy(dst, r.buf[i:])
	copy(dst[first:], r.buf[:n-first])
	if r.gaps == 0 {
		return 0
	}
	for _, g := range r.gap[i : i+first] {
		if g {
			gaps++
		}
	}
	for _, g := range r.gap[:n-first] {
		if g {
			gaps++
		}
	}
	return gaps
}
