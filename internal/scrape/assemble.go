package scrape

import (
	"fmt"
	"math"
)

// Assembler transposes per-database scrape results into the monitor's
// sample[kpi][db] ingestion layout. Its backing storage is reused across
// rounds, so warm assembly is allocation-free — the scrape path adds no
// per-tick garbage on top of the zero-alloc correlation engine.
//
// Assembler is not safe for concurrent use; the scraper owns one and calls
// it after the round fan-out has joined.
type Assembler struct {
	kpis, dbs int
	rows      [][]float64
}

// NewAssembler allocates an assembler for a kpis × dbs unit.
func NewAssembler(kpis, dbs int) *Assembler {
	if kpis <= 0 || dbs <= 0 {
		panic("scrape: non-positive assembler shape")
	}
	a := &Assembler{kpis: kpis, dbs: dbs}
	a.rows = make([][]float64, kpis)
	cells := make([]float64, kpis*dbs)
	for k := range a.rows {
		a.rows[k] = cells[k*dbs : (k+1)*dbs : (k+1)*dbs]
	}
	return a
}

// Assemble builds the sample for one round. vecs must have one entry per
// database: vecs[d] is database d's KPI vector (length kpis), or nil when
// the database was missing, late, broken, or stale by the deadline — its
// column becomes NaN gaps for the degraded-ingestion path. The returned
// sample aliases the assembler's reusable storage; ingest it before the
// next call.
func (a *Assembler) Assemble(vecs [][]float64) ([][]float64, error) {
	if len(vecs) != a.dbs {
		return nil, fmt.Errorf("scrape: assemble got %d targets, want %d", len(vecs), a.dbs)
	}
	for d, vec := range vecs {
		if vec != nil && len(vec) != a.kpis {
			return nil, fmt.Errorf("scrape: target %d vector has %d KPIs, want %d", d, len(vec), a.kpis)
		}
	}
	for k := 0; k < a.kpis; k++ {
		row := a.rows[k]
		for d := 0; d < a.dbs; d++ {
			if vec := vecs[d]; vec != nil {
				row[d] = vec[k]
			} else {
				row[d] = math.NaN()
			}
		}
	}
	return a.rows, nil
}
