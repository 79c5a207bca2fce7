package main

import (
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// TestDeviatingKPIsReadTheVerdictsEvidence: an abnormal verdict's incident
// culprits are its flagged database's level-1 and level-2 KPIs in the
// judgment that decided it, and a verdict the unit has since judged past
// opens its incident unattributed instead of borrowing a later round's.
func TestDeviatingKPIsReadTheVerdictsEvidence(t *testing.T) {
	const ticks = 600
	u, err := cluster.Simulate(cluster.Config{Name: "u", Ticks: ticks, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
		Ticks: ticks, Databases: u.Series.Databases, TargetRatio: 0.1,
	}, mathx.NewRNG(6))
	if _, err := anomaly.Inject(u, events, mathx.NewRNG(7)); err != nil {
		t.Fatal(err)
	}
	o, err := monitor.NewOnline(detect.Config{Thresholds: window.DefaultThresholds(kpi.Count)}, kpi.Count, u.Series.Databases)
	if err != nil {
		t.Fatal(err)
	}
	col, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	var earlier *monitor.Verdict
	attributed := 0
	for {
		sample, ok := col.Next()
		if !ok {
			break
		}
		v, err := o.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil || !v.Abnormal {
			continue
		}
		_, exps := o.Explain()
		var want incident.KPISet
		for _, k := range exps[v.AbnormalDB].Culprits() {
			want = want.With(int(k))
		}
		if got := deviatingKPIs(o, v); got != want || got == 0 {
			t.Fatalf("verdict at tick %d: culprits %v, its evidence names %v", v.Tick, got, want)
		}
		if earlier != nil {
			if got := deviatingKPIs(o, earlier); got != 0 {
				t.Fatalf("stale verdict at tick %d attributed %v from the round at tick %d", earlier.Tick, got, v.Tick)
			}
		}
		earlier = v
		attributed++
	}
	if attributed < 2 {
		t.Fatalf("%d abnormal verdicts: the stream exercised nothing", attributed)
	}
}
