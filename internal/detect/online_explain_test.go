package detect_test

import (
	"reflect"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/scenario"
	"dbcatcher/internal/window"
)

// TestOnlineExplanationsAreTheVerdicts streams every hostile scenario
// through the online judge, promotions applied, and explains each judged
// verdict from the judge's own evidence. The explanation must name the
// verdict's window and states, put the flagged database in the abnormal
// state with its culprits, and carry exactly the findings the pre-change
// loop computes given the round's primary, active mask and thresholds.
//
// It also counts how often the retired re-judge (the window read back and
// explained with primary 0, no mask and no flexible-window finalization)
// disagreed with the verdict it claimed to explain.
func TestOnlineExplanationsAreTheVerdicts(t *testing.T) {
	var judged, abnormal, rejudgeWrong, rejudgeWrongAbnormal, rejudgeCulprits int
	for _, sc := range scenario.All() {
		for seed := uint64(1); seed <= 10; seed++ {
			setup, err := sc.Build(scenario.Config{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			dbs := setup.Series.Databases
			o, err := monitor.NewOnline(detect.Config{
				Thresholds: window.DefaultThresholds(kpi.Count),
				Workers:    1,
			}, kpi.Count, dbs)
			if err != nil {
				t.Fatal(err)
			}
			col, err := cluster.NewCollector(setup.Series, setup.Plan)
			if err != nil {
				t.Fatal(err)
			}
			primary := 0
			for tick := 0; ; tick++ {
				for _, p := range setup.Promotions {
					if p.Tick == tick {
						if err := o.SetPrimary(p.NewPrimary); err != nil {
							t.Fatal(err)
						}
						primary = p.NewPrimary
					}
				}
				sample, ok := col.Next()
				if !ok {
					break
				}
				v, err := o.Push(sample)
				if err != nil {
					t.Fatal(err)
				}
				if v == nil || v.Health == detect.HealthSkipped {
					continue
				}
				judged++
				at := func(format string, args ...interface{}) {
					t.Helper()
					t.Fatalf("%s seed %d verdict [%d,+%d) tick %d: "+format,
						append([]interface{}{sc.Name, seed, v.Start, v.Size, v.Tick}, args...)...)
				}
				last, exps := o.Explain()
				if last != v || last.Start != v.Start || last.Size != v.Size {
					at("explanation names another verdict %+v", last)
				}
				if len(exps) != dbs {
					at("%d explanations for %d databases", len(exps), dbs)
				}
				for d, e := range exps {
					if e.DB != d || e.State != v.States[d] {
						at("db%d explained %v, verdict says %v", d, e.State, v.States[d])
					}
				}
				if v.Abnormal {
					abnormal++
					if e := exps[v.AbnormalDB]; e.State != window.Abnormal || len(e.Culprits()) == 0 {
						at("flagged db%d explained %v with culprits %v", v.AbnormalDB, e.State, e.Culprits())
					}
				}

				// The round's inputs: the ring still holds the window, the
				// auto-deactivated databases are those the round left out
				// (there is no configured mask), and nothing has swapped
				// the thresholds since.
				u, err := o.Processor().Window(v.Start, v.Size)
				if err != nil {
					t.Fatal(err)
				}
				var active []bool
				for d, down := range o.Health().AutoDeactivated {
					if down {
						if active == nil {
							active = make([]bool, dbs)
							for i := range active {
								active[i] = true
							}
						}
						active[d] = false
					}
				}
				oracle, err := detect.ExplainOracle(detect.NewProvider(u, nil, active), detect.Config{
					Thresholds: o.Thresholds(), Primary: primary, Active: active,
				}, 0, v.Size)
				if err != nil {
					t.Fatal(err)
				}
				for d := range oracle {
					if !reflect.DeepEqual(exps[d].KPIs, oracle[d].KPIs) {
						at("db%d findings %+v, oracle %+v", d, exps[d].KPIs, oracle[d].KPIs)
					}
					if s := oracle[d].State; s != window.Observable && s != v.States[d] {
						at("db%d judged %v by the oracle, finalized %v", d, s, v.States[d])
					}
				}

				rejudge, err := detect.ExplainOracle(detect.NewProvider(u, nil, nil), detect.Config{
					Thresholds: o.Thresholds(),
				}, 0, v.Size)
				if err != nil {
					t.Fatal(err)
				}
				for d, e := range rejudge {
					if e.State != v.States[d] {
						rejudgeWrong++
						break
					}
				}
				if v.Abnormal {
					if rejudge[v.AbnormalDB].State != window.Abnormal {
						rejudgeWrongAbnormal++
					}
					if !sameKPIs(rejudge[v.AbnormalDB].Culprits(), exps[v.AbnormalDB].Culprits()) {
						rejudgeCulprits++
					}
				}
			}
		}
	}
	if judged == 0 || abnormal == 0 || rejudgeWrong == 0 {
		t.Fatalf("judged %d verdicts, %d abnormal, %d with inputs the re-judge gets wrong: the scenarios no longer exercise what this test pins",
			judged, abnormal, rejudgeWrong)
	}
	t.Logf("%d judged verdicts (%d abnormal) explained by their own evidence; the re-judge disagreed with %d (%d abnormal) and named other culprits for %d",
		judged, abnormal, rejudgeWrong, rejudgeWrongAbnormal, rejudgeCulprits)
}

// sameKPIs compares two culprit lists as sets.
func sameKPIs(a, b []kpi.KPI) bool {
	var sa, sb uint64
	for _, k := range a {
		sa |= 1 << uint(k)
	}
	for _, k := range b {
		sb |= 1 << uint(k)
	}
	return sa == sb
}
