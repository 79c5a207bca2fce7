package incident

import "fmt"

// maxLag bounds the lead-lag histograms to ±maxLag ticks; onsets further
// apart clamp to the edge bins.
const maxLag = 16

// pairKey identifies an unordered KPI pair; a < b always.
type pairKey struct{ a, b uint8 }

// leadLag maintains global per-KPI-pair lag histograms across closed
// clusters: each cluster contributes, per pair of KPIs it observed onsets
// for, one sample of (onset[b] - onset[a]) clamped to ±maxLag. Recurring
// cascades concentrate mass in one bin, and the mode becomes the
// "KPI A leads KPI B by ~k ticks" hint with its observed share as
// confidence.
type leadLag struct {
	hist map[pairKey][]uint32
}

func (l *leadLag) init() {
	l.hist = make(map[pairKey][]uint32)
}

// fold adds one cluster's onset vector: every pair of KPIs with recorded
// onsets contributes one lag sample.
func (l *leadLag) fold(onsets *[MaxKPIs]int) {
	for a := 0; a < MaxKPIs; a++ {
		if onsets[a] < 0 {
			continue
		}
		for b := a + 1; b < MaxKPIs; b++ {
			if onsets[b] < 0 {
				continue
			}
			delta := onsets[b] - onsets[a]
			if delta > maxLag {
				delta = maxLag
			}
			if delta < -maxLag {
				delta = -maxLag
			}
			k := pairKey{a: uint8(a), b: uint8(b)}
			h, ok := l.hist[k]
			if !ok {
				h = make([]uint32, 2*maxLag+1)
				l.hist[k] = h
			}
			h[delta+maxLag]++
		}
	}
}

// hint returns the modal lag for the pair (a, b), a < b: lag > 0 means a's
// onset precedes b's by lag ticks. share is the mode's fraction of all
// samples, samples the total count; samples == 0 means the pair was never
// observed. Ties resolve to the most-negative lag, deterministically.
func (l *leadLag) hint(a, b int) (lag int, share float64, samples int) {
	h, ok := l.hist[pairKey{a: uint8(a), b: uint8(b)}]
	if !ok {
		return 0, 0, 0
	}
	total, best, bestAt := uint32(0), uint32(0), 0
	for i, n := range h {
		total += n
		if n > best {
			best, bestAt = n, i
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	return bestAt - maxLag, float64(best) / float64(total), int(total)
}

// CascadeHint is one oriented lead-lag finding: the Lead KPI's deviation
// typically precedes the Lag KPI's by Ticks.
type CascadeHint struct {
	Lead    int     `json:"lead"`
	Lag     int     `json:"lag"`
	Ticks   int     `json:"ticks"`
	Share   float64 `json:"share"`
	Samples int     `json:"samples"`
}

// String renders the operator hint.
func (h CascadeHint) String() string {
	if h.Ticks == 0 {
		return fmt.Sprintf("%s moves with %s (%.0f%% of %d)",
			kpiName(h.Lead), kpiName(h.Lag), 100*h.Share, h.Samples)
	}
	return fmt.Sprintf("%s leads %s by ~%d tick(s) (%.0f%% of %d)",
		kpiName(h.Lead), kpiName(h.Lag), h.Ticks, 100*h.Share, h.Samples)
}
