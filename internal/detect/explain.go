package detect

import (
	"fmt"
	"sort"

	"dbcatcher/internal/kpi"
	"dbcatcher/internal/window"
)

// Explanation attributes a judgment to indicators: for one database in one
// window, which KPIs sat at which correlation level and with what best
// peer score. This implements the paper's future-work direction of using
// KPI time series for root cause analysis after detection (§V): level-1
// KPIs name the indicators that broke the UKPIC phenomenon.
type Explanation struct {
	DB    int
	State window.State
	// KPIs holds one entry per judged indicator, worst level first.
	KPIs []KPIFinding
}

// KPIFinding is one indicator's contribution to a judgment.
type KPIFinding struct {
	KPI       kpi.KPI
	Level     window.Level
	BestScore float64 // the database's best peer correlation on this KPI
}

// Culprits returns the deviating indicators (level-1, then level-2).
func (e *Explanation) Culprits() []kpi.KPI {
	var out []kpi.KPI
	for _, f := range e.KPIs {
		if f.Level == window.Level1 || f.Level == window.Level2 {
			out = append(out, f.KPI)
		}
	}
	return out
}

// String renders the explanation for operator logs.
func (e *Explanation) String() string {
	s := fmt.Sprintf("db%d %s", e.DB, e.State)
	for _, f := range e.KPIs {
		if f.Level == window.Level3 {
			break // findings are sorted worst-first
		}
		s += fmt.Sprintf("; %s %s (%.2f)", f.KPI, f.Level, f.BestScore)
	}
	return s
}

// Explain judges the window [start, start+size) of the provider and
// returns the per-database indicator attribution: each database's
// tentative state and the findings that decided it.
func Explain(p MatrixProvider, cfg Config, start, size int) ([]*Explanation, error) {
	cfg = cfg.withDefaults()
	_, kpis, dbs := p.Shape()
	if err := cfg.Thresholds.Validate(kpis); err != nil {
		return nil, err
	}
	mats, err := p.Matrices(start, size)
	if err != nil {
		return nil, err
	}
	js := NewEvidenceScratch()
	return js.Explain(js.Judge(mats, cfg, kpis, dbs)), nil
}

// Explain attributes the scratch's latest judgment to indicators: one
// explanation per database, carrying states[d] and the database's judged
// findings, worst level first (ties: lowest best score first). The scratch
// must come from NewEvidenceScratch, and states must have one entry per
// judged database — the judgment's own states, or the verdict's final ones.
func (js *JudgeScratch) Explain(states []window.State) []*Explanation {
	out := make([]*Explanation, len(states))
	for d, st := range states {
		e := &Explanation{DB: d, State: st}
		for _, f := range js.cells[d*js.kpis : (d+1)*js.kpis] {
			if f.Level != 0 {
				e.KPIs = append(e.KPIs, f)
			}
		}
		sort.SliceStable(e.KPIs, func(i, j int) bool {
			if e.KPIs[i].Level != e.KPIs[j].Level {
				return e.KPIs[i].Level < e.KPIs[j].Level
			}
			return e.KPIs[i].BestScore < e.KPIs[j].BestScore
		})
		out[d] = e
	}
	return out
}
