// Package fleet fans per-unit work out over a bounded worker pool. A cloud
// region holds thousands of database units and every unit's judgment round
// is independent, so the detection, dataset-generation, and
// threshold-learning layers all share this one fan-out primitive instead of
// growing private goroutine plumbing.
//
// Determinism: tasks receive their index and results land in index order,
// so a successful fleet pass produces identical output regardless of
// concurrency or scheduling — provided the per-index task is itself
// deterministic and shares no mutable state with its siblings. On failure
// the lowest-indexed error that was recorded before the pool drained is
// returned; which sibling errors also ran may vary with scheduling.
package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a Concurrency knob to a worker count: values <= 0 use
// GOMAXPROCS, anything else is taken literally (1 = serial).
func Resolve(concurrency int) int {
	if concurrency <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return concurrency
}

// Each runs fn(0), ..., fn(n-1) over a pool of Resolve(concurrency)
// workers and returns the lowest-indexed recorded error, or nil. After a
// task fails, no new tasks are started (in-flight tasks finish).
func Each(n, concurrency int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Resolve(concurrency)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	// Each index is owned by exactly one worker, so errs needs no lock.
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map is Each with one result slot per index: out[i] = fn(i), in input
// order. On error the partial results are discarded.
func Map[T any](n, concurrency int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Each(n, concurrency, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
