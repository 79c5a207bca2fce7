package correlate

import (
	"math"
	"testing"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/timeseries"
)

// oracleKCD is the paper-literal reference the production kernel must match
// bit for bit: every call prepares both windows from scratch (gap repair,
// Eq. 1 normalization, centering by the full-window means) and kcdDirect
// re-sums each delay's cross sum and overlap energies in one straightforward
// O(n) pass per delay (Eq. 2-4). It allocates freely and shares nothing
// between pairs, which is exactly what the production prepare/scan split
// must be indistinguishable from.
func oracleKCD(x, y []float64, opts Options) (score float64, delay int) {
	n := len(x)
	if len(y) != n {
		panic(mathx.ErrLengthMismatch)
	}
	if n == 0 {
		return 0, 0
	}
	xc := append([]float64(nil), x...)
	yc := append([]float64(nil), y...)
	repairGaps(xc)
	repairGaps(yc)
	if opts.Normalize {
		mathx.NormalizeInto(xc, xc)
		mathx.NormalizeInto(yc, yc)
	}
	mx, my := mathx.Mean(xc), mathx.Mean(yc)
	for i := 0; i < n; i++ {
		xc[i] -= mx
		yc[i] -= my
	}
	constX := allZero(xc)
	constY := allZero(yc)
	if constX && constY {
		return 1, 0
	}
	if constX || constY {
		return 0, 0
	}
	return kcdDirect(xc, yc, opts.maxDelay(n))
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
// as zero variance, relative to the window's total energy.
func energyEps(c []float64) float64 {
	var total float64
	for _, v := range c {
		total += v * v
	}
	return 1e-12 * (total + 1e-300)
}

// oracleTestUnit draws a random unit whose windows cover the kernel's edge
// cases: noisy and trend-sharing series, NaN gap runs, all-gap windows,
// constant and two-level windows, near-constant windows whose centered
// values are pure roundoff, and windows holding a ±Inf point (whose NaN
// energies must take the same branches as the oracle's).
func oracleTestUnit(rng *mathx.RNG, kpis, dbs, length int) *timeseries.UnitSeries {
	u := timeseries.NewUnitSeries("oracle", kpis, dbs)
	for k := 0; k < kpis; k++ {
		period := rng.Range(3, 30)
		for d := 0; d < dbs; d++ {
			vals := make([]float64, length)
			lag := float64(rng.Intn(5))
			scale := math.Pow(10, rng.Range(-3, 4))
			switch kind := rng.Intn(9); kind {
			case 0: // constant
				c := rng.Range(-5, 5)
				for i := range vals {
					vals[i] = c
				}
			case 1: // two-level
				lo, hi := rng.Range(-1, 0), rng.Range(0, 1)
				for i := range vals {
					vals[i] = lo
					if rng.Float64() < 0.5 {
						vals[i] = hi
					}
				}
			case 2: // all gaps
				for i := range vals {
					vals[i] = math.NaN()
				}
			case 3: // constant with roundoff-sized wiggles
				c := rng.Range(1, 100)
				for i := range vals {
					vals[i] = c + c*1e-15*float64(rng.Intn(3)-1)
				}
			case 4: // one infinite point in a noisy series
				for i := range vals {
					vals[i] = rng.Norm()
				}
				vals[rng.Intn(length)] = math.Inf(1 - 2*rng.Intn(2))
			default: // shared trend, lagged per database, plus noise
				for i := range vals {
					vals[i] = scale * (math.Sin(2*math.Pi*(float64(i)+lag)/period) + 0.3*rng.Norm())
				}
			}
			if rng.Float64() < 0.4 { // gap runs
				for g := rng.Intn(4) + 1; g > 0; g-- {
					at := rng.Intn(length)
					for r := rng.Intn(4) + 1; r > 0 && at < length; r-- {
						vals[at] = math.NaN()
						at++
					}
				}
			}
			u.Series(k, d).Append(vals...)
		}
	}
	return u
}

// TestEngineMatchesOracle pins the production prepare/scan kernel to the
// paper-literal oracle bit for bit: every matrix cell the engine builds,
// with each window prepared once per KPI and shared by its pairs, and every
// KCDWithDelayScratch score and delay, must equal oracleKCD's exactly. The
// engines and the scratch are reused across units of varying window length
// and delay budget, so stale buffer contents would show as a mismatch.
func TestEngineMatchesOracle(t *testing.T) {
	optionSets := []Options{
		DetectionOptions(),
		DefaultOptions(),
		{MaxDelayFraction: 0.3},
		{MaxDelayFraction: 0.5, MaxDelayPoints: 4, Normalize: false},
	}
	engines := make([]*Engine, len(optionSets))
	for i, o := range optionSets {
		engines[i] = NewEngine(o, 1)
	}
	scratch := NewScratch()
	rng := mathx.NewRNG(20230415)
	units := 600
	if testing.Short() {
		units = 150
	}
	for iter := 0; iter < units; iter++ {
		n := rng.Intn(130) + 1
		if iter < 130 {
			n = iter + 1 // every length 1..130 at least once
		}
		dbs := rng.Intn(5) + 2
		kpis := rng.Intn(3) + 1
		start := rng.Intn(4)
		u := oracleTestUnit(rng, kpis, dbs, start+n+rng.Intn(4))
		var active []bool
		if rng.Float64() < 0.5 {
			active = make([]bool, dbs)
			for d := range active {
				active[d] = rng.Float64() < 0.7
			}
		}
		for oi, opts := range optionSets {
			mats, err := engines[oi].BuildMatrices(u, start, n, active)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < kpis; k++ {
				for i := 0; i < dbs; i++ {
					wi, _ := u.Series(k, i).Window(start, n)
					for j := i + 1; j < dbs; j++ {
						wj, _ := u.Series(k, j).Window(start, n)
						want, wantDelay := oracleKCD(wi, wj, opts)
						gotS, gotDelay := KCDWithDelayScratch(wi, wj, opts, scratch)
						if math.Float64bits(gotS) != math.Float64bits(want) || gotDelay != wantDelay {
							t.Fatalf("unit %d n=%d opts %+v pair (%d,%d) kpi %d: KCDWithDelayScratch (%v, %d), oracle (%v, %d)",
								iter, n, opts, i, j, k, gotS, gotDelay, want, wantDelay)
						}
						if active != nil && (!active[i] || !active[j]) {
							want = 0
						}
						if got := mats[k].At(i, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("unit %d n=%d dbs=%d opts %+v active %v: cell (%d,%d) kpi %d = %v, oracle %v",
								iter, n, dbs, opts, active, i, j, k, got, want)
						}
					}
				}
			}
		}
	}
}
