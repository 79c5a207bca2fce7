package rootcause

import (
	"strings"
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

func verdict(start, size int, abnormalDBs ...int) detect.Verdict {
	v := detect.Verdict{Start: start, Size: size, AbnormalDB: -1}
	v.States = make([]window.State, 5)
	for _, db := range abnormalDBs {
		v.States[db] = window.Abnormal
		v.Abnormal = true
		if v.AbnormalDB == -1 {
			v.AbnormalDB = db
		}
	}
	return v
}

func TestAnalyzerMergesAdjacentWindows(t *testing.T) {
	a := NewAnalyzer(0)
	a.Observe(verdict(0, 20), nil)
	a.Observe(verdict(20, 20, 2), nil)
	a.Observe(verdict(40, 20, 2), nil)
	a.Observe(verdict(60, 20), nil)
	incidents := a.Flush()
	if len(incidents) != 1 {
		t.Fatalf("incidents = %d", len(incidents))
	}
	inc := incidents[0]
	if inc.DB != 2 || inc.Start != 20 || inc.End != 60 || inc.Windows != 2 {
		t.Fatalf("incident = %+v", inc)
	}
}

func TestAnalyzerSplitsOnGap(t *testing.T) {
	a := NewAnalyzer(0)
	a.Observe(verdict(0, 20, 1), nil)
	a.Observe(verdict(20, 20), nil)
	a.Observe(verdict(40, 20, 1), nil)
	incidents := a.Flush()
	if len(incidents) != 2 {
		t.Fatalf("incidents = %d, want 2 (gap exceeded)", len(incidents))
	}
}

func TestAnalyzerToleratesGapWithin(t *testing.T) {
	a := NewAnalyzer(20)
	a.Observe(verdict(0, 20, 1), nil)
	a.Observe(verdict(20, 20), nil) // healthy, gap 20 <= MaxGap
	a.Observe(verdict(40, 20, 1), nil)
	incidents := a.Flush()
	if len(incidents) != 1 {
		t.Fatalf("incidents = %d, want 1 (gap tolerated)", len(incidents))
	}
	if incidents[0].End != 60 {
		t.Fatalf("end = %d", incidents[0].End)
	}
}

func TestAnalyzerSeparatesDatabases(t *testing.T) {
	a := NewAnalyzer(0)
	a.Observe(verdict(0, 20, 1, 3), nil)
	incidents := a.Flush()
	if len(incidents) != 2 {
		t.Fatalf("incidents = %d, want one per database", len(incidents))
	}
}

func TestAnalyzeEndToEndNamesCulprits(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "rc", Ticks: 300, Seed: 1, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	affected := []kpi.KPI{kpi.RequestsPerSecond, kpi.TotalRequests}
	if _, err := anomaly.Inject(u, []anomaly.Event{{
		Type: anomaly.Stall, DB: 3, Start: 120, Length: 60,
		Magnitude: 0.9, KPIs: affected,
	}}, mathx.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	cfg := detect.Config{Thresholds: window.DefaultThresholds(kpi.Count)}
	verdicts, _, err := detect.Run(u.Series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	provider := detect.NewProvider(u.Series, nil, nil)
	incidents, err := Analyze(provider, cfg, verdicts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hit *Incident
	for _, inc := range incidents {
		if inc.DB == 3 && inc.Start < 180 && inc.End > 120 {
			hit = inc
		}
	}
	if hit == nil {
		t.Fatalf("no incident on db3: %v", incidents)
	}
	if len(hit.Findings) == 0 {
		t.Fatal("incident has no findings")
	}
	// The top findings must include the affected KPIs.
	top := map[kpi.KPI]bool{}
	for i, f := range hit.Findings {
		if i < 4 {
			top[f.KPI] = true
		}
	}
	for _, k := range affected {
		if !top[k] {
			t.Errorf("top findings %v missing affected KPI %v", hit.Findings, k)
		}
	}
	if !strings.Contains(hit.String(), "db3") {
		t.Fatalf("String() = %q", hit.String())
	}
}
