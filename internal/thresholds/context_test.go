package thresholds

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dbcatcher/internal/window"
)

// contextSearchers are every policy that implements ContextSearcher, with
// small budgets so the full-search comparison stays fast.
func contextSearchers() []ContextSearcher {
	return []ContextSearcher{
		GA{Seed: 7},
		SAA{Seed: 7},
		Random{Seed: 7},
	}
}

func TestSearchContextBackgroundMatchesSearch(t *testing.T) {
	fitness := quadraticFitness(0.7, 0.2, 2)
	for _, s := range contextSearchers() {
		plain := s.Search(4, fitness)
		ctxRes, err := s.SearchContext(context.Background(), 4, fitness)
		if err != nil {
			t.Fatalf("%s: SearchContext(Background) error: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(plain, ctxRes) {
			t.Fatalf("%s: SearchContext(Background) diverged from Search:\n  plain %+v\n  ctx   %+v",
				s.Name(), plain, ctxRes)
		}
	}
}

func TestSearchContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range contextSearchers() {
		var calls int32
		_, err := s.SearchContext(ctx, 4, func(window.Thresholds) float64 {
			atomic.AddInt32(&calls, 1)
			return 0.5
		})
		if err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", s.Name(), err)
		}
		// A cancelled context must stop the search before it burns the full
		// evaluation budget (a single in-flight evaluation may still land).
		if n := atomic.LoadInt32(&calls); n > 1 {
			t.Fatalf("%s: %d fitness calls after pre-cancelled context", s.Name(), n)
		}
	}
}

func TestSearchContextCancelledMidSearch(t *testing.T) {
	base := quadraticFitness(0.7, 0.2, 2)
	for _, s := range contextSearchers() {
		ctx, cancel := context.WithCancel(context.Background())
		var calls int32
		res, err := s.SearchContext(ctx, 4, func(th window.Thresholds) float64 {
			if atomic.AddInt32(&calls, 1) == 10 {
				cancel()
			}
			return base(th)
		})
		if err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", s.Name(), err)
		}
		full := s.Search(4, base)
		if res.Evaluations >= full.Evaluations {
			t.Fatalf("%s: cancelled search ran %d evaluations, full search runs %d",
				s.Name(), res.Evaluations, full.Evaluations)
		}
	}
}

func TestSearchContextDeadline(t *testing.T) {
	// A fitness slow enough that the deadline expires inside the first
	// handful of evaluations; the search must return promptly with the
	// deadline error rather than finishing its budget.
	for _, s := range contextSearchers() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, err := s.SearchContext(ctx, 4, func(window.Thresholds) float64 {
			time.Sleep(2 * time.Millisecond)
			return 0.5
		})
		cancel()
		if err != context.DeadlineExceeded {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", s.Name(), err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("%s: deadline-bounded search took %v", s.Name(), el)
		}
	}
}
