// Package correlate implements the paper's time-series correlation
// measurement: the Key Correlation Distance (KCD, Eq. 1-4), the per-KPI
// correlation matrices (Eq. 5), and the alternative correlation measures
// DBCatcher is compared against (Pearson, dynamic time warping).
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

// Scratch holds the reusable working buffers of KCD computations: the
// prepared windows of one KPI's databases (or of one KCDWithDelayScratch
// pair) and the per-delay cross sums, all carved out of one slab, so that
// steady-state correlation passes perform no allocations. A Scratch must
// not be shared between goroutines; the matrix Engine keeps one per worker.
type Scratch struct {
	slab []float64
	prep []prepared
	// windows stages per-database window slices during a matrix build.
	windows [][]float64
}

// NewScratch returns an empty scratch; buffers grow on first use and are
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// growPrepared sizes the scratch for d windows of n points scanned to
// delays |s| <= m. It returns the d prepared slots and the 2m+1 cross-sum
// buffer of the scan.
func (s *Scratch) growPrepared(d, n, m int) ([]prepared, []float64) {
	stride := n + 4*(m+1)
	need := d*stride + 2*m + 1
	if cap(s.slab) < need {
		s.slab = make([]float64, need)
	}
	if cap(s.prep) < d {
		s.prep = make([]prepared, d)
	}
	prep := s.prep[:d]
	for i := range prep {
		b := s.slab[i*stride : (i+1)*stride]
		e := m + 1
		prep[i] = prepared{
			c:     b[:n:n],
			head:  b[n : n+e : n+e],
			tail:  b[n+e : n+2*e : n+2*e],
			headR: b[n+2*e : n+3*e : n+3*e],
			tailR: b[n+3*e : n+4*e : n+4*e],
		}
	}
	return prep, s.slab[d*stride : need]
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
// It is the per-window half (prepare) applied to each window, then the
// per-pair half (the delay scan) — the same kernel the matrix Engine runs
// with each window prepared once per KPI.
func KCDWithDelayScratch(x, y []float64, opts Options, s *Scratch) (score float64, delay int) {
	n := len(x)
	if len(y) != n {
		panic(mathx.ErrLengthMismatch)
	}
	if s == nil {
		s = NewScratch()
	}
	m := opts.maxDelay(n)
	prep, num := s.growPrepared(2, n, m)
	prep[0].load(x, opts.Normalize)
	prep[1].load(y, opts.Normalize)
	return kcdPrepared(&prep[0], &prep[1], num)
}

// prepared is one window after the per-window half of KCD: the
// gap-repaired, normalized (Eq. 1) and centered copy, and the overlap
// energy of every delay |s| <= m with its square root. A window plays x at
// delay +s over c[s:] (energy tail[s]) and y over c[:n-s] (head[s]); at
// delay -s the two roles swap. Every energy is a left-to-right sum from 0,
// term by term the one a per-delay scan accumulates, so the per-pair scan
// reproduces that scan's scores bit for bit.
type prepared struct {
	c            []float64
	head, tail   []float64 // energies of c[:n-s] and c[s:], s = 0..m
	headR, tailR []float64 // their square roots
	eps          float64   // zero-variance threshold, relative to the total energy
	constant     bool
}

// load prepares window w into p's buffers, which must be len(w) points long.
// The caller's window is never written.
func (p *prepared) load(w []float64, normalize bool) {
	c := p.c
	copy(c, w)
	// Collector gaps arrive as NaN points; repair them in the copy so a
	// few holes degrade the score gracefully instead of poisoning the
	// normalization and every overlap they touch.
	repairGaps(c)
	if normalize {
		mathx.NormalizeInto(c, c)
	}
	// Center by the full-window mean (ave(x), ave(y) in Eq. 3).
	mean := mathx.Mean(c)
	for i := range c {
		c[i] -= mean
	}
	p.constant = allZero(c)
	if !p.constant {
		p.energies()
	}
}

// energies fills head, tail, their roots and eps from the centered window.
func (p *prepared) energies() {
	c, m := p.c, len(p.head)-1
	n := len(c)
	// The prefix chain is head[s] for s = m..0 as it passes n-s points;
	// its full sum is tail[0] and sets eps.
	var total float64
	for i, v := range c {
		total += v * v
		if s := n - 1 - i; s <= m {
			p.head[s] = total
		}
	}
	p.tail[0] = total
	// Zero-variance threshold relative to the window's total energy, so
	// floating-point residue (a segment exactly equal to the window mean,
	// whose centered values are pure roundoff) cannot masquerade as signal
	// and produce a spurious perfect correlation.
	p.eps = 1e-12 * (total + 1e-300)
	// Each tail sum starts at its own index, so each is its own chain;
	// run four at a time so their adds overlap instead of queueing.
	s := 1
	for ; s+3 <= m; s += 4 {
		var t0, t1, t2, t3 float64
		t0 += c[s] * c[s]
		t0 += c[s+1] * c[s+1]
		t1 += c[s+1] * c[s+1]
		t0 += c[s+2] * c[s+2]
		t1 += c[s+2] * c[s+2]
		t2 += c[s+2] * c[s+2]
		for _, v := range c[s+3:] {
			t0 += v * v
			t1 += v * v
			t2 += v * v
			t3 += v * v
		}
		p.tail[s], p.tail[s+1], p.tail[s+2], p.tail[s+3] = t0, t1, t2, t3
	}
	for ; s <= m; s++ {
		var t float64
		for _, v := range c[s:] {
			t += v * v
		}
		p.tail[s] = t
	}
	for s := 0; s <= m; s++ {
		p.headR[s] = math.Sqrt(p.head[s])
		p.tailR[s] = math.Sqrt(p.tail[s])
	}
}

// kcdPrepared is the per-pair half of KCD over two prepared windows of
// equal length: the degenerate-window rules, then the delay scan. num is
// the 2m+1 cross-sum buffer.
func kcdPrepared(x, y *prepared, num []float64) (float64, int) {
	if len(x.c) == 0 {
		return 0, 0
	}
	if x.constant && y.constant {
		return 1, 0
	}
	if x.constant || y.constant {
		return 0, 0
	}
	m := len(x.head) - 1
	crossSums(x.c, y.c, m, num)
	best := math.Inf(-1)
	bestDelay := 0
	for idx := 0; idx <= 2*m; idx++ {
		s := delayAt(idx)
		var nx, rx, ny, ry float64
		if s >= 0 {
			// x[s:] against y[:n-s] (Eq. 2, Eq. 3 first case).
			nx, rx, ny, ry = x.tail[s], x.tailR[s], y.head[s], y.headR[s]
		} else {
			// Eq. 3 second case: x[:n+s] against y[-s:].
			nx, rx, ny, ry = x.head[-s], x.headR[-s], y.tail[-s], y.tailR[-s]
		}
		// safeRatio's rule on the precomputed roots: numerically
		// zero-variance overlaps count as uncorrelated, rounding noise is
		// clamped into [-1, 1].
		var score float64
		if !(nx <= x.eps || ny <= y.eps) {
			score = mathx.Clamp(num[idx]/(rx*ry), -1, 1)
		}
		if score > best+tieEps {
			best = score
			bestDelay = s
		}
	}
	return best, bestDelay
}

// crossSums fills num[idx] with the overlap cross sum of Eq. 3 at delay
// delayAt(idx) for every |s| <= m: sum x[i+s]·y[i] over i < n-s for s >= 0,
// sum x[i]·y[i-s] over i < n+s for s < 0. Each sum runs in ascending index
// order in its own accumulator, so it is bit-identical to a separate pass
// per delay; several delays share one pass so their dependent add chains
// overlap instead of running back to back.
func crossSums(x, y []float64, m int, num []float64) {
	n := len(x)
	s := 0
	if m >= 2 {
		// Delays 0, ±1 and ±2: five chains over the n-2 points they all
		// cover, then the two and one extra points of the shorter overlaps.
		k := n - 2
		x0, y0 := x[:k], y[:k]
		x1, y1 := x[1:k+1], y[1:k+1]
		x2, y2 := x[2:n], y[2:n]
		var c0, p1, q1, p2, q2 float64
		for i := range x0 {
			a, b := x0[i], y0[i]
			c0 += a * b
			p1 += x1[i] * b
			q1 += a * y1[i]
			p2 += x2[i] * b
			q2 += a * y2[i]
		}
		c0 += x[k] * y[k]
		p1 += x[k+1] * y[k]
		q1 += x[k] * y[k+1]
		c0 += x[k+1] * y[k+1]
		num[0], num[1], num[2], num[3], num[4] = c0, p1, q1, p2, q2
		// Delays ±s and ±(s+1): four chains over the n-s-1 points of the
		// longer overlap, then the last point of delay s.
		for s = 3; s+1 <= m; s += 2 {
			k := n - s - 1
			x0, y0 := x[:k], y[:k]
			xs, ys := x[s:s+k], y[s:s+k]
			xt, yt := x[s+1:n], y[s+1:n]
			var p1, q1, p2, q2 float64
			for i := range x0 {
				a, b := x0[i], y0[i]
				p1 += xs[i] * b
				q1 += a * ys[i]
				p2 += xt[i] * b
				q2 += a * yt[i]
			}
			p1 += x[n-1] * y[k]
			q1 += x[k] * y[n-1]
			num[2*s-1], num[2*s], num[2*s+1], num[2*s+2] = p1, q1, p2, q2
		}
	}
	// The delays left over: all of a scan with m < 2, else at most ±m.
	for ; s <= m; s++ {
		var p, q float64
		for i := 0; i < n-s; i++ {
			p += x[i+s] * y[i]
			q += x[i] * y[i+s]
		}
		if s == 0 {
			num[0] = p
			continue
		}
		num[2*s-1], num[2*s] = p, q
	}
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

// safeRatio computes num / (sqrt(nx)·sqrt(ny)) treating (numerically)
// zero-variance overlaps as uncorrelated, and clamps rounding noise into
// [-1, 1]. The delay scan applies the same rule to prepared energies and
// their precomputed roots.
func safeRatio(num, nx, ny, epsX, epsY float64) float64 {
	if nx <= epsX || ny <= epsY {
		return 0
	}
	return mathx.Clamp(num/(math.Sqrt(nx)*math.Sqrt(ny)), -1, 1)
}
