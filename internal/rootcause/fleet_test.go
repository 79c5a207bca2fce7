package rootcause

import (
	"strings"
	"testing"

	"dbcatcher/internal/incident"
)

// buildClusterReport drives a real aggregator through a correlated fault
// (unit 0 leads on KPI 2, units 1-5 follow on KPI 12) and returns the
// finalized cluster report.
func buildClusterReport(t *testing.T) *incident.ClusterReport {
	t.Helper()
	a := incident.New(incident.Config{ProximityTicks: 16, CloseAfter: 30})
	a.ObserveRound(120, []incident.Event{
		{Unit: 0, DB: 2, KPIs: incident.KPISet(0).With(2), Start: 100, End: 120},
	})
	events := make([]incident.Event, 0, 5)
	for u := 1; u <= 5; u++ {
		events = append(events, incident.Event{Unit: u, DB: 2, KPIs: incident.KPISet(0).With(12), Start: 104, End: 124})
	}
	a.ObserveRound(124, events)
	a.Flush(400)
	_, reps := a.Page(0, 10)
	if len(reps) != 1 {
		t.Fatalf("expected one cluster report, got %d", len(reps))
	}
	return reps[0]
}

func TestAttributeFleetFindsOrigin(t *testing.T) {
	rep := buildClusterReport(t)
	fr := AttributeFleet(rep)
	if fr.ClusterID != rep.ID {
		t.Fatalf("cluster id %d, want %d", fr.ClusterID, rep.ID)
	}
	if fr.OriginUnit != 0 || fr.OriginDB != 2 || fr.OriginTick != 100 {
		t.Fatalf("origin = unit %d db %d tick %d, want unit 0 db 2 tick 100", fr.OriginUnit, fr.OriginDB, fr.OriginTick)
	}
	if fr.Spread != 6 {
		t.Fatalf("spread = %d, want 6", fr.Spread)
	}
	if len(fr.Cascade) != 1 || fr.Cascade[0].Lead != 2 || fr.Cascade[0].Lag != 12 || fr.Cascade[0].Ticks != 4 {
		t.Fatalf("cascade = %+v, want KPI 2 leads KPI 12 by 4", fr.Cascade)
	}
	for _, frag := range []string{"probable origin unit 0 db 2 at tick 100", "spread to 6 units", "cascade:", "leads"} {
		if !strings.Contains(fr.Summary, frag) {
			t.Fatalf("summary %q missing %q", fr.Summary, frag)
		}
	}
}

func TestAttributeFleetDeterministic(t *testing.T) {
	a := AttributeFleet(buildClusterReport(t))
	b := AttributeFleet(buildClusterReport(t))
	if a.Summary != b.Summary {
		t.Fatalf("attribution diverged:\n%s\n%s", a.Summary, b.Summary)
	}
}

func TestAttributeFleetEmptyCluster(t *testing.T) {
	fr := AttributeFleet(&incident.ClusterReport{ID: 7})
	if fr.OriginUnit != -1 || fr.OriginDB != -1 {
		t.Fatalf("empty cluster origin = %d/%d, want -1/-1", fr.OriginUnit, fr.OriginDB)
	}
	if !strings.Contains(fr.Summary, "no members") {
		t.Fatalf("summary %q", fr.Summary)
	}
}

func TestCascadeOrdering(t *testing.T) {
	rep := &incident.ClusterReport{
		ID: 3,
		Members: []incident.MemberReport{
			{ID: 1, Unit: 4, DB: 0, FirstTick: 50, KPIs: []string{"Com Insert"}},
		},
		Partition: incident.Partition{Units: []int{4}},
		Cascade: []incident.CascadeHint{
			{Lead: 1, Lag: 2, Ticks: 8, Share: 0.5, Samples: 2},  // evidence 1.0
			{Lead: 3, Lag: 4, Ticks: 2, Share: 0.9, Samples: 10}, // evidence 9.0
		},
	}
	fr := AttributeFleet(rep)
	if fr.Cascade[0].Lead != 3 {
		t.Fatalf("strongest hint should lead: %+v", fr.Cascade)
	}
}
