package correlate

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dbcatcher/internal/timeseries"
)

// resolveWorkers maps a worker knob to a pool size: values <= 0 use
// GOMAXPROCS, anything else is taken literally (1 = serial).
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// minParallelWork is the smallest score-cell volume (KPIs x database pairs x
// window points) the engine fans out over goroutines. Below it the pool's
// spawn/join overhead rivals the build itself: at the paper's detection
// shape (14 KPIs x 10 pairs x 60 points = 8400 cells) a whole serial build
// takes 80-100 us (9-12 ns/cell on a 2-vCPU host), and two workers measured
// 0.9-1.1x of it; 8 databases (23520 cells) were the smallest measured shape
// where two workers won (1.4x). On single-core hosts (GOMAXPROCS=1) the
// fan-out is a pure loss. Results are bit-identical either way: each KPI
// matrix is filled by exactly one goroutine, so the cutoff only changes
// scheduling, never scores. Larger fleets (more databases) or longer
// windows cross the threshold and still parallelize.
const minParallelWork = 50000

// Engine builds the per-KPI correlation matrices of Eq. 5 over a bounded
// worker pool. The Q×pairs task grid is sharded per KPI: each worker claims
// whole KPIs off an atomic counter and fills that matrix alone, so the
// result is bit-identical to the serial build regardless of worker count or
// scheduling. Every worker draws a private Scratch from the engine's free
// list, making steady-state KCD matrix builds allocation-lean: only the
// output matrices themselves are allocated. Unlike a sync.Pool the free
// list survives garbage collection and is not per-P, so a warm engine's
// allocation count does not depend on GC timing or GOMAXPROCS.
//
// An Engine is safe for concurrent use and is meant to be built once and
// reused across windows (the online monitor keeps one per unit).
type Engine struct {
	workers int
	useKCD  bool
	opts    Options
	measure Measure

	mu   sync.Mutex
	free []*Scratch // idle worker scratches
}

// NewEngine returns the allocation-lean KCD engine: pairs are scored with
// KCDWithDelayScratch under the given options. workers <= 0 sizes the pool
// to GOMAXPROCS; 1 forces the serial path for determinism-sensitive or
// already-parallel callers (results are identical either way — serial only
// removes the goroutine fan-out).
func NewEngine(opts Options, workers int) *Engine {
	return &Engine{workers: workers, useKCD: true, opts: opts}
}

// NewMeasureEngine wraps an arbitrary pairwise measure (the Table X
// ablations: Pearson, DTW, or a custom closure). The measure must
// be safe for concurrent use — every measure in this repository is a pure
// function. This path cannot reuse KCD scratch buffers, so a measure built
// by KCDMeasure allocates per pair; prefer NewEngine for KCD.
func NewMeasureEngine(m Measure, workers int) *Engine {
	return &Engine{workers: workers, measure: m}
}

// Workers reports the resolved pool size.
func (e *Engine) Workers() int { return resolveWorkers(e.workers) }

// scratch draws a worker-private scratch sized for a d-database unit.
func (e *Engine) scratch(d int) *Scratch {
	var s *Scratch
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	}
	e.mu.Unlock()
	if s == nil {
		s = NewScratch()
	}
	s.growWindows(d)
	return s
}

// release returns a worker's scratch to the free list.
func (e *Engine) release(s *Scratch) {
	e.mu.Lock()
	e.free = append(e.free, s)
	e.mu.Unlock()
}

// BuildMatrices computes the Q correlation matrices for the window
// [start, start+n) of a unit's multivariate series. active[d] marks whether
// database d participates; per the paper, an unused database has all of its
// scores set to 0. A nil active slice means all databases are active.
func (e *Engine) BuildMatrices(u *timeseries.UnitSeries, start, n int, active []bool) ([]*Matrix, error) {
	if !e.useKCD && e.measure == nil {
		return nil, fmt.Errorf("correlate: nil measure")
	}
	out := make([]*Matrix, u.KPIs)
	for k := range out {
		out[k] = NewMatrix(u.Databases)
	}
	workers := e.Workers()
	if workers > u.KPIs {
		workers = u.KPIs
	}
	if pairs := u.Databases * (u.Databases - 1) / 2; u.KPIs*pairs*n < minParallelWork {
		workers = 1 // small unit: fan-out overhead beats the win (see minParallelWork)
	}
	if workers <= 1 {
		s := e.scratch(u.Databases)
		defer e.release(s)
		for k := 0; k < u.KPIs; k++ {
			if err := e.buildKPI(u, start, n, active, out[k], k, s); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// Each KPI slot is owned by exactly one worker, so errs needs no lock;
	// the lowest-indexed error wins deterministically after the join.
	errs := make([]error, u.KPIs)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.scratch(u.Databases)
			defer e.release(s)
			for {
				k := int(next.Add(1)) - 1
				if k >= u.KPIs || failed.Load() {
					return
				}
				if err := e.buildKPI(u, start, n, active, out[k], k, s); err != nil {
					errs[k] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildKPI fills one KPI's matrix: stage the database windows, then score
// every unordered pair. On the KCD path each active window is prepared once
// (the per-window half of KCDWithDelayScratch) and every pair runs only the
// delay scan over two prepared windows.
func (e *Engine) buildKPI(u *timeseries.UnitSeries, start, n int, active []bool, m *Matrix, k int, s *Scratch) error {
	windows := s.growWindows(u.Databases)
	for d := 0; d < u.Databases; d++ {
		w, err := u.Series(k, d).Window(start, n)
		if err != nil {
			return err
		}
		windows[d] = w
	}
	var prep []prepared
	var num []float64
	if e.useKCD {
		prep, num = s.growPrepared(u.Databases, n, e.opts.maxDelay(n))
		for d, w := range windows {
			if active == nil || active[d] {
				prep[d].load(w, e.opts.Normalize)
			}
		}
	}
	for i := 0; i < u.Databases; i++ {
		for j := i + 1; j < u.Databases; j++ {
			if active != nil && (!active[i] || !active[j]) {
				m.Set(i, j, 0)
				continue
			}
			if e.useKCD {
				score, _ := kcdPrepared(&prep[i], &prep[j], num)
				m.Set(i, j, score)
			} else {
				m.Set(i, j, e.measure(windows[i], windows[j]))
			}
		}
	}
	return nil
}

// BuildMatrices computes the Q correlation matrices of Eq. 5 for the window
// [start, start+n) of a unit's multivariate series, fanning the per-KPI
// work out over a GOMAXPROCS-bounded worker pool, so the measure must be
// safe for concurrent use. active[d] marks whether database d
// participates; a nil active slice means all databases are active.
//
// Callers on the KCD hot path should hold a reusable *Engine from
// NewEngine instead: it scores pairs through per-worker scratch buffers
// and avoids the per-call allocations of a generic measure closure.
func BuildMatrices(u *timeseries.UnitSeries, start, n int, active []bool, measure Measure) ([]*Matrix, error) {
	if measure == nil {
		return nil, fmt.Errorf("correlate: nil measure")
	}
	return NewMeasureEngine(measure, 0).BuildMatrices(u, start, n, active)
}
