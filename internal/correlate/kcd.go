// Package correlate implements the paper's time-series correlation
// measurement: the Key Correlation Distance (KCD, Eq. 1-4), the per-KPI
// correlation matrices (Eq. 5), and the alternative correlation measures
// DBCatcher is compared against (Pearson, Spearman, dynamic time warping).
package correlate

import (
	"math"

	"dbcatcher/internal/mathx"
)

// Options configures a KCD computation.
type Options struct {
	// MaxDelayFraction bounds the delay scan: the maximum |s| is
	// round(fraction * n). The paper uses m = n/2 (s ∈ [1, m], n = 2m).
	// Values <= 0 default to 0.5.
	MaxDelayFraction float64
	// MaxDelayPoints, when positive, additionally caps the scanned delay
	// at an absolute number of points. Collection delays are small and
	// "essentially the same in a time window" (§IV-D1), so capping the
	// scan at the realistic delay bound sharpens the contrast between
	// correlated and deviating windows: an unconstrained scan lets an
	// abnormal window rescue itself by aligning at some large spurious
	// lag. The detection pipeline uses 4; 0 disables the cap.
	MaxDelayPoints int
	// Normalize applies min-max scaling (Eq. 1) before correlating. The
	// paper always normalizes; tests may disable it.
	Normalize bool
}

// DefaultOptions mirrors the paper's setup: scan delays up to n/2 on
// min-max-normalized windows.
func DefaultOptions() Options {
	return Options{MaxDelayFraction: 0.5, Normalize: true}
}

// DetectionOptions is the configuration the detection pipeline uses: the
// n/2 scan capped at ±4 points, covering realistic collection delays
// without letting spurious lag alignments mask anomalies.
func DetectionOptions() Options {
	return Options{MaxDelayFraction: 0.5, MaxDelayPoints: 4, Normalize: true}
}

// IsZero reports whether o is the zero configuration. Facade callers use
// it as the "unset" sentinel when deciding whether an Options field was an
// explicit override; pair it with an explicit use-flag when the zero
// configuration itself must be selectable.
func (o Options) IsZero() bool { return o == Options{} }

func (o Options) maxDelay(n int) int {
	f := o.MaxDelayFraction
	if f <= 0 {
		f = 0.5
	}
	m := int(f * float64(n))
	if o.MaxDelayPoints > 0 && m > o.MaxDelayPoints {
		m = o.MaxDelayPoints
	}
	if m >= n {
		m = n - 1
	}
	if m < 0 {
		m = 0
	}
	return m
}

// KCD returns the Key Correlation Distance between two aligned windows of
// equal length: the maximum, over point-in-time delays s with |s| <= m, of
// the normalized correlation between the overlapping portions (Eq. 2-4).
// The score lies in [-1, 1]; values near 1 mean the trends correlate, low
// values indicate abnormal divergence.
//
// Degenerate windows: if both windows are constant the trends trivially
// agree and KCD is 1; if exactly one is constant KCD is 0.
func KCD(x, y []float64, opts Options) float64 {
	score, _ := KCDWithDelay(x, y, opts)
	return score
}

// KCDWithDelay is KCD but also reports the delay s at which the maximum
// correlation was found (positive s means x lags y).
func KCDWithDelay(x, y []float64, opts Options) (score float64, delay int) {
	return KCDWithDelayScratch(x, y, opts, nil)
}

// Scratch holds the reusable working buffers of a KCD computation (the
// normalized, centered window copies), so that steady-state correlation
// passes allocate nothing. A Scratch must not be shared between goroutines;
// the matrix Engine keeps one per worker.
type Scratch struct {
	xc, yc []float64
	// windows stages per-database window slices during a matrix build.
	windows [][]float64
}

// NewScratch returns an empty scratch; buffers grow on first use and are
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// grow sizes the centered-window buffers for length-n windows.
func (s *Scratch) grow(n int) {
	if cap(s.xc) < n {
		s.xc = make([]float64, n)
		s.yc = make([]float64, n)
	}
	s.xc = s.xc[:n]
	s.yc = s.yc[:n]
}

// growWindows sizes the window staging area for a d-database unit.
func (s *Scratch) growWindows(d int) [][]float64 {
	if cap(s.windows) < d {
		s.windows = make([][]float64, d)
	}
	s.windows = s.windows[:d]
	return s.windows
}

// KCDWithDelayScratch is KCDWithDelay computing through caller-owned
// scratch buffers: with a reused Scratch it performs no allocations. A nil
// scratch allocates a transient one, making it equivalent to KCDWithDelay.
// Scores and delays are bit-identical to the allocating path.
func KCDWithDelayScratch(x, y []float64, opts Options, s *Scratch) (score float64, delay int) {
	n := len(x)
	if len(y) != n {
		panic(mathx.ErrLengthMismatch)
	}
	if n == 0 {
		return 0, 0
	}
	if s == nil {
		s = NewScratch()
	}
	s.grow(n)
	copy(s.xc, x)
	copy(s.yc, y)
	// Collector gaps arrive as NaN points; repair them in the scratch copy
	// so a few holes degrade the score gracefully instead of poisoning the
	// normalization and every overlap they touch. Gap-free windows take the
	// early-exit scan and compute bit-identical scores.
	repairGaps(s.xc)
	repairGaps(s.yc)
	if opts.Normalize {
		mathx.NormalizeInto(s.xc, s.xc)
		mathx.NormalizeInto(s.yc, s.yc)
	}
	// Center by the full-window means (ave(x), ave(y) in Eq. 3).
	mx, my := mathx.Mean(s.xc), mathx.Mean(s.yc)
	for i := 0; i < n; i++ {
		s.xc[i] -= mx
		s.yc[i] -= my
	}
	constX := allZero(s.xc)
	constY := allZero(s.yc)
	if constX && constY {
		return 1, 0
	}
	if constX || constY {
		return 0, 0
	}
	return kcdDirect(s.xc, s.yc, opts.maxDelay(n))
}

// repairGaps fills NaN holes in place: interior runs are linearly
// interpolated between their surviving neighbours, leading/trailing runs
// hold the nearest surviving value, and an all-gap window becomes all
// zeros (a constant series, which the degenerate-window rules already
// handle). It allocates nothing and reports whether any repair happened.
func repairGaps(v []float64) bool {
	n := len(v)
	i := 0
	for i < n && !math.IsNaN(v[i]) {
		i++
	}
	if i == n {
		return false // fast path: no gaps
	}
	for i < n {
		if !math.IsNaN(v[i]) {
			i++
			continue
		}
		runStart := i
		for i < n && math.IsNaN(v[i]) {
			i++
		}
		// Gap run [runStart, i); left neighbour at runStart-1, right at i.
		switch {
		case runStart == 0 && i == n:
			for j := range v {
				v[j] = 0
			}
		case runStart == 0:
			for j := 0; j < i; j++ {
				v[j] = v[i]
			}
		case i == n:
			for j := runStart; j < n; j++ {
				v[j] = v[runStart-1]
			}
		default:
			left, right := v[runStart-1], v[i]
			span := float64(i - runStart + 1)
			for j := runStart; j < i; j++ {
				frac := float64(j-runStart+1) / span
				v[j] = left + (right-left)*frac
			}
		}
	}
	return true
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// tieEps breaks ties in the delay scan: a longer delay must beat the
// incumbent by more than this to win, so that among equally good alignments
// (e.g. one signal period apart) the smallest |s| is reported.
const tieEps = 1e-12

// delayAt maps a scan index to the delay sequence 0, 1, -1, 2, -2, ...,
// m, -m, so that combined with tieEps the smallest-magnitude delay wins
// ties without materializing the order as a slice.
func delayAt(idx int) int {
	if idx == 0 {
		return 0
	}
	d := (idx + 1) / 2
	if idx%2 == 1 {
		return d
	}
	return -d
}

// kcdDirect scans delays with the straightforward O(n·m) loop.
func kcdDirect(xc, yc []float64, m int) (float64, int) {
	n := len(xc)
	epsX, epsY := energyEps(xc), energyEps(yc)
	best := math.Inf(-1)
	bestDelay := 0
	for idx := 0; idx <= 2*m; idx++ {
		s := delayAt(idx)
		var num, nx, ny float64
		if s >= 0 {
			// Compare x[s:] against y[:n-s] (Eq. 2, Eq. 3 first case).
			for i := 0; i < n-s; i++ {
				a, b := xc[i+s], yc[i]
				num += a * b
				nx += a * a
				ny += b * b
			}
		} else {
			// Eq. 3 second case: x[:n+s] against y[-s:].
			for i := 0; i < n+s; i++ {
				a, b := xc[i], yc[i-s]
				num += a * b
				nx += a * a
				ny += b * b
			}
		}
		score := safeRatio(num, nx, ny, epsX, epsY)
		if score > best+tieEps {
			best = score
			bestDelay = s
		}
	}
	return best, bestDelay
}

// energyEps returns the threshold below which an overlap's energy counts
// as zero variance. It is relative to the window's total energy so that
// floating-point residue (e.g. a segment exactly equal to the window
// mean, whose centered values are pure roundoff) cannot masquerade as
// signal and produce a spurious perfect correlation.
func energyEps(c []float64) float64 {
	var total float64
	for _, v := range c {
		total += v * v
	}
	return 1e-12 * (total + 1e-300)
}

// safeRatio computes num / (sqrt(nx)·sqrt(ny)) treating (numerically)
// zero-variance overlaps as uncorrelated, and clamps rounding noise into
// [-1, 1].
func safeRatio(num, nx, ny, epsX, epsY float64) float64 {
	if nx <= epsX || ny <= epsY {
		return 0
	}
	return mathx.Clamp(num/(math.Sqrt(nx)*math.Sqrt(ny)), -1, 1)
}
