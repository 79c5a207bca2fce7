package scrape

import (
	"fmt"
	"math"
	"sync"
)

// Feed is the bridge between a unit's collection source and its exporter:
// Publish installs the current tick's sample (in the collector's
// sample[kpi][db] layout, possibly nil or ragged), and each scrape the
// exporter serves reads its databases' columns back out. A wholly-dropped
// tick is published as all-NaN so databases still advance their tick — the
// scraper sees fresh responses carrying no usable data, exactly what the
// in-process path records as a missed tick.
//
// Feed is safe for concurrent use: the publisher goroutine advances ticks
// while HTTP handlers serve scrapes.
type Feed struct {
	mu   sync.RWMutex
	kpis int
	dbs  int
	tick int         // last published tick, -1 before the first Publish
	cols [][]float64 // cols[d][k]: per-database KPI vectors
}

// NewFeed allocates a feed for a kpis × dbs unit.
func NewFeed(kpis, dbs int) *Feed {
	if kpis <= 0 || dbs <= 0 {
		panic("scrape: non-positive feed shape")
	}
	f := &Feed{kpis: kpis, dbs: dbs, tick: -1}
	f.cols = make([][]float64, dbs)
	cells := make([]float64, dbs*kpis)
	for d := range f.cols {
		f.cols[d] = cells[d*kpis : (d+1)*kpis : (d+1)*kpis]
	}
	return f
}

// Shape returns the feed's KPI and database counts.
func (f *Feed) Shape() (kpis, dbs int) { return f.kpis, f.dbs }

// Publish installs the sample for tick. The sample follows the collector's
// degraded delivery contract: nil means the whole tick was lost, missing or
// truncated rows lose their cells, NaN cells are lost points. Oversized
// samples are a pipeline bug and error.
func (f *Feed) Publish(tick int, sample [][]float64) error {
	if len(sample) > f.kpis {
		return fmt.Errorf("scrape: publish got %d KPI rows, want at most %d", len(sample), f.kpis)
	}
	for k, row := range sample {
		if len(row) > f.dbs {
			return fmt.Errorf("scrape: publish KPI %d row has %d databases, want at most %d", k, len(row), f.dbs)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for d := 0; d < f.dbs; d++ {
		col := f.cols[d]
		for k := 0; k < f.kpis; k++ {
			v := math.NaN()
			if k < len(sample) && d < len(sample[k]) {
				v = sample[k][d]
			}
			col[k] = v
		}
	}
	f.tick = tick
	return nil
}

// Read copies the current vectors of databases lo, lo+1, … into dst (dst[i]
// receives database lo+i's and must hold kpis values) under one read lock,
// so every vector comes from the same published tick, and returns that
// tick. ok is false before the first Publish or when the range leaves the
// unit.
func (f *Feed) Read(lo int, dst [][]float64) (tick int, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if lo < 0 || lo+len(dst) > f.dbs || f.tick < 0 {
		return 0, false
	}
	for i, v := range dst {
		copy(v, f.cols[lo+i])
	}
	return f.tick, true
}
