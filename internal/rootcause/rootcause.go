// Package rootcause aggregates per-window judgments into incidents — the
// operator-facing unit of the paper's future-work direction ("after
// detecting anomalies, how can root cause analysis be performed using
// database KPI time series?"). Consecutive abnormal verdicts on the same
// database merge into one incident carrying the indicators that broke the
// UKPIC phenomenon, ranked by how often and how severely they deviated.
package rootcause

import (
	"fmt"
	"sort"
	"strings"

	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/window"
)

// Incident is a contiguous run of abnormal verdicts on one database.
type Incident struct {
	// DB is the abnormal database.
	DB int
	// Start is the first tick of the first abnormal window; End the tick
	// after the last abnormal window.
	Start, End int
	// Windows is the number of merged abnormal verdicts.
	Windows int
	// Findings ranks the deviating indicators, most implicated first.
	Findings []Finding
}

// Finding summarizes one indicator's role in an incident.
type Finding struct {
	KPI kpi.KPI
	// Level1 and Level2 count windows in which the indicator sat at each
	// deviation level.
	Level1, Level2 int
	// WorstScore is the lowest best-peer correlation observed.
	WorstScore float64
}

// severity orders findings: more level-1 windows, then more level-2, then
// lower worst score.
func (f Finding) severity() (int, int, float64) { return f.Level1, f.Level2, -f.WorstScore }

// String renders an operator-facing one-liner.
func (i *Incident) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "db%d abnormal ticks [%d, %d) over %d window(s)", i.DB, i.Start, i.End, i.Windows)
	if len(i.Findings) > 0 {
		b.WriteString("; deviating KPIs:")
		max := 3
		if len(i.Findings) < max {
			max = len(i.Findings)
		}
		for _, f := range i.Findings[:max] {
			fmt.Fprintf(&b, " %s (worst %.2f)", f.KPI, f.WorstScore)
		}
	}
	return b.String()
}

// Analyzer folds verdicts and their explanations into incidents.
type Analyzer struct {
	// MaxGap is the largest tick gap between abnormal windows that still
	// merges into one incident (default 0: windows must be adjacent).
	MaxGap int

	open      map[int]*Incident // by database
	completed []*Incident
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer(maxGap int) *Analyzer {
	return &Analyzer{MaxGap: maxGap, open: make(map[int]*Incident)}
}

// Observe folds one verdict with its per-database explanations (from
// detect.Explain over the same window). Explanations may be nil, in which
// case incidents carry no findings.
func (a *Analyzer) Observe(v detect.Verdict, exps []*detect.Explanation) {
	end := v.Start + v.Size
	// Close incidents whose database is healthy in this verdict or whose
	// gap exceeded MaxGap.
	for db, inc := range a.open {
		stillAbnormal := db < len(v.States) && v.States[db] == window.Abnormal
		if !stillAbnormal && v.Start-inc.End > a.MaxGap {
			a.close(db)
		}
	}
	for db, s := range v.States {
		if s != window.Abnormal {
			continue
		}
		inc, ok := a.open[db]
		if !ok || v.Start-inc.End > a.MaxGap {
			if ok {
				a.close(db)
			}
			inc = &Incident{DB: db, Start: v.Start, End: end}
			a.open[db] = inc
		}
		inc.End = end
		inc.Windows++
		if exps != nil && db < len(exps) && exps[db] != nil {
			mergeFindings(inc, exps[db])
		}
	}
}

func mergeFindings(inc *Incident, e *detect.Explanation) {
	byKPI := make(map[kpi.KPI]*Finding, len(inc.Findings))
	for i := range inc.Findings {
		byKPI[inc.Findings[i].KPI] = &inc.Findings[i]
	}
	for _, kf := range e.KPIs {
		if kf.Level == window.Level3 {
			continue
		}
		f, ok := byKPI[kf.KPI]
		if !ok {
			inc.Findings = append(inc.Findings, Finding{KPI: kf.KPI, WorstScore: kf.BestScore})
			f = &inc.Findings[len(inc.Findings)-1]
			byKPI[kf.KPI] = f
		}
		switch kf.Level {
		case window.Level1:
			f.Level1++
		case window.Level2:
			f.Level2++
		}
		if kf.BestScore < f.WorstScore {
			f.WorstScore = kf.BestScore
		}
	}
}

func (a *Analyzer) close(db int) {
	inc := a.open[db]
	delete(a.open, db)
	rankFindings(inc)
	a.completed = append(a.completed, inc)
}

func rankFindings(inc *Incident) {
	sort.SliceStable(inc.Findings, func(i, j int) bool {
		a1, a2, a3 := inc.Findings[i].severity()
		b1, b2, b3 := inc.Findings[j].severity()
		if a1 != b1 {
			return a1 > b1
		}
		if a2 != b2 {
			return a2 > b2
		}
		return a3 > b3
	})
}

// Flush closes all open incidents and returns the completed list in
// detection order.
func (a *Analyzer) Flush() []*Incident {
	dbs := make([]int, 0, len(a.open))
	for db := range a.open {
		dbs = append(dbs, db)
	}
	sort.Ints(dbs)
	for _, db := range dbs {
		a.close(db)
	}
	sort.SliceStable(a.completed, func(i, j int) bool {
		if a.completed[i].Start != a.completed[j].Start {
			return a.completed[i].Start < a.completed[j].Start
		}
		return a.completed[i].DB < a.completed[j].DB
	})
	out := a.completed
	a.completed = nil
	return out
}

// Analyze runs detection and explanation over a full unit series and
// returns the incident report — the batch entry point.
func Analyze(u detect.MatrixProvider, cfg detect.Config, verdicts []detect.Verdict, maxGap int) ([]*Incident, error) {
	a := NewAnalyzer(maxGap)
	for _, v := range verdicts {
		var exps []*detect.Explanation
		if v.Abnormal {
			var err error
			exps, err = detect.Explain(u, cfg, v.Start, v.Size)
			if err != nil {
				return nil, err
			}
		}
		a.Observe(v, exps)
	}
	return a.Flush(), nil
}
