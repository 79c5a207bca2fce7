package fleet

import (
	"context"
	"fmt"
	"sync/atomic"

	"dbcatcher/internal/monitor"
	"dbcatcher/internal/scrape"
)

// Pusher is one unit's per-tick ingestion surface. monitor.Online
// implements it directly; server.Server wraps an Online and adds
// verdict-history recording with the same signature. Monitor deliberately
// depends on this interface rather than concrete types so the fleet layer
// stays below the HTTP layer in the import graph.
type Pusher interface {
	Push(sample [][]float64) (*monitor.Verdict, error)
}

// Monitor drives N independent per-unit online judges through lock-step
// collection rounds behind one bounded scheduler. Each tick fans the
// units out over an Each pool: per-unit work (ring ingestion, round
// judgment) runs inside the unit's task, results land in unit order, and
// a unit failure surfaces as Each's lowest-indexed recorded error. Units
// are fully independent — no cross-unit state — so a fleet round is
// bit-identical to running every unit's judge alone, regardless of
// concurrency or scheduling.
//
// Push and ScrapeRound must be called from one scheduler goroutine at a
// time (each unit's judge serializes internally, but the round itself is
// a lock-step batch); Ticks is safe to read concurrently.
type Monitor struct {
	units       []Pusher
	scrapers    []*scrape.Scraper
	concurrency int
	ticks       atomic.Int64
}

// NewMonitor builds a fleet scheduler over units. concurrency follows
// Resolve semantics (<= 0 means GOMAXPROCS).
func NewMonitor(units []Pusher, concurrency int) (*Monitor, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("fleet: no units")
	}
	for i, u := range units {
		if u == nil {
			return nil, fmt.Errorf("fleet: unit %d is nil", i)
		}
	}
	return &Monitor{units: units, concurrency: concurrency}, nil
}

// SetScrapers attaches one scraper per unit for ScrapeRound batching.
// Each unit keeps its own scraper — and with it the per-target circuit
// breakers, retry budgets, and stale markdown state of the scrape layer —
// so a broken exporter only degrades its own unit.
func (m *Monitor) SetScrapers(scrapers []*scrape.Scraper) error {
	if len(scrapers) != len(m.units) {
		return fmt.Errorf("fleet: %d scrapers for %d units", len(scrapers), len(m.units))
	}
	for i, s := range scrapers {
		if s == nil {
			return fmt.Errorf("fleet: scraper %d is nil", i)
		}
	}
	m.scrapers = scrapers
	return nil
}

// Ticks returns how many rounds have been scheduled.
func (m *Monitor) Ticks() int { return int(m.ticks.Load()) }

// Push feeds one collection tick to every unit: samples[i] goes to unit i
// (nil marks a missed tick — the unit's degraded-ingestion path handles
// it). Verdicts land in unit order; units with no completed round this
// tick hold nil. On error the partial results are discarded and the
// lowest-indexed unit error is returned.
func (m *Monitor) Push(samples [][][]float64) ([]*monitor.Verdict, error) {
	if len(samples) != len(m.units) {
		return nil, fmt.Errorf("fleet: %d samples for %d units", len(samples), len(m.units))
	}
	m.ticks.Add(1)
	return Map(len(m.units), m.concurrency, func(i int) (*monitor.Verdict, error) {
		return m.units[i].Push(samples[i])
	})
}

// ScrapeRound runs one batched collection round over the wire: every
// unit's scraper fans out to its exporters (bounded by its own scrape
// concurrency and round deadline, reusing its per-target breakers) and
// the assembled sample is pushed into that unit's judge within the same
// task, so a slow unit never blocks its siblings beyond pool capacity.
// Reports land in unit order even when a later stage fails.
func (m *Monitor) ScrapeRound(ctx context.Context) ([]*monitor.Verdict, []scrape.RoundReport, error) {
	if m.scrapers == nil {
		return nil, nil, fmt.Errorf("fleet: no scrapers attached")
	}
	m.ticks.Add(1)
	verdicts := make([]*monitor.Verdict, len(m.units))
	reports := make([]scrape.RoundReport, len(m.units))
	err := Each(len(m.units), m.concurrency, func(i int) error {
		sample, rep, err := m.scrapers[i].Round(ctx)
		reports[i] = rep
		if err != nil {
			return fmt.Errorf("fleet: unit %d scrape: %w", i, err)
		}
		// The sample aliases the scraper's reusable row storage; the judge
		// copies what it keeps during ingestion, so consuming it before the
		// task returns (and the next round reuses the rows) is safe.
		v, err := m.units[i].Push(sample)
		if err != nil {
			return fmt.Errorf("fleet: unit %d push: %w", i, err)
		}
		verdicts[i] = v
		return nil
	})
	if err != nil {
		return nil, reports, err
	}
	return verdicts, reports, nil
}
