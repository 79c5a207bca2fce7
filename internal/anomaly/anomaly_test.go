package anomaly

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/workload"
)

func newUnit(t *testing.T, ticks int, seed uint64) *cluster.Unit {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: ticks, Seed: seed, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9, // keep benign noise out of these tests
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestInjectLabels(t *testing.T) {
	u := newUnit(t, 300, 1)
	events := []Event{
		{Type: Spike, DB: 2, Start: 100, Length: 10, Magnitude: 2},
		{Type: Stall, DB: 1, Start: 200, Length: 8, Magnitude: 0.9},
	}
	labels, err := Inject(u, events, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := labels.AbnormalCount(); got != 18 {
		t.Fatalf("abnormal ticks = %d, want 18", got)
	}
	if !labels.Point[105] || labels.DB[105] != 2 {
		t.Fatal("spike range not labelled")
	}
	if !labels.Point[204] || labels.DB[204] != 1 {
		t.Fatal("stall range not labelled")
	}
	if labels.Point[50] || labels.DB[50] != -1 {
		t.Fatal("healthy tick mislabelled")
	}
	if math.Abs(labels.Ratio()-18.0/300) > 1e-12 {
		t.Fatalf("Ratio = %v", labels.Ratio())
	}
}

func TestInjectValidation(t *testing.T) {
	u := newUnit(t, 100, 2)
	rng := mathx.NewRNG(1)
	cases := []Event{
		{Type: Spike, DB: 9, Start: 10, Length: 5, Magnitude: 1}, // bad db
		{Type: Spike, DB: 0, Start: 98, Length: 5, Magnitude: 1}, // past end
		{Type: Spike, DB: 0, Start: -1, Length: 5, Magnitude: 1}, // bad start
		{Type: Spike, DB: 0, Start: 10, Length: 0, Magnitude: 1}, // bad length
		{Type: Spike, DB: 0, Start: 10, Length: 5, Magnitude: 0}, // bad magnitude
	}
	for i, e := range cases {
		if _, err := Inject(u, []Event{e}, rng); err == nil {
			t.Errorf("case %d should have failed", i)
		}
	}
}

// TestSpikeBreaksUKPIC verifies the central mechanism: before injection the
// target correlates with peers; during the episode it does not.
func TestSpikeBreaksUKPIC(t *testing.T) {
	u := newUnit(t, 400, 3)
	k := kpi.RequestsPerSecond
	opts := correlate.DefaultOptions()
	window := func(d, start, n int) []float64 {
		w, err := u.Series.Data[k][d].Window(start, n)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	before := correlate.KCD(window(1, 100, 30), window(2, 100, 30), opts)
	if _, err := Inject(u, []Event{{Type: Spike, DB: 1, Start: 100, Length: 30, Magnitude: 2.5, KPIs: []kpi.KPI{k}}}, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	after := correlate.KCD(window(1, 100, 30), window(2, 100, 30), opts)
	if after >= before-0.1 {
		t.Fatalf("spike did not break correlation: before %.3f after %.3f", before, after)
	}
	// Peers stay correlated with each other.
	peers := correlate.KCD(window(2, 100, 30), window(3, 100, 30), opts)
	if peers < 0.7 {
		t.Fatalf("peer correlation collapsed: %.3f", peers)
	}
}

func TestStallCollapsesKPIs(t *testing.T) {
	u := newUnit(t, 200, 4)
	preMean := mathx.Mean(u.Series.Data[kpi.RequestsPerSecond][0].Values[100:120])
	if _, err := Inject(u, []Event{{Type: Stall, DB: 0, Start: 100, Length: 20, Magnitude: 0.9}}, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	postMean := mathx.Mean(u.Series.Data[kpi.RequestsPerSecond][0].Values[100:120])
	if postMean > 0.2*preMean {
		t.Fatalf("stall kept %v of %v", postMean, preMean)
	}
	// Real Capacity must be untouched by default.
	cap100 := u.Series.Data[kpi.RealCapacity][0].Values[110]
	if cap100 == 0 {
		t.Fatal("stall should not zero Real Capacity")
	}
}

func TestLBDefectShiftsTraffic(t *testing.T) {
	u := newUnit(t, 300, 5)
	k := kpi.RequestsPerSecond
	pre := make([]float64, 5)
	for d := 0; d < 5; d++ {
		pre[d] = mathx.Mean(u.Series.Data[k][d].Values[150:200])
	}
	if _, err := Inject(u, []Event{{Type: LoadBalanceDefect, DB: 3, Start: 150, Length: 50, Magnitude: 1.5}}, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	post := make([]float64, 5)
	for d := 0; d < 5; d++ {
		post[d] = mathx.Mean(u.Series.Data[k][d].Values[150:200])
	}
	if post[3] <= pre[3]*1.5 {
		t.Fatalf("target should gain traffic: %v -> %v", pre[3], post[3])
	}
	for d := 0; d < 5; d++ {
		if d == 3 {
			continue
		}
		if post[d] >= pre[d] {
			t.Fatalf("peer %d should lose traffic: %v -> %v", d, pre[d], post[d])
		}
	}
}

func TestFragmentationDivergesCapacity(t *testing.T) {
	u := newUnit(t, 400, 6)
	target := 2
	if _, err := Inject(u, []Event{{Type: Fragmentation, DB: target, Start: 100, Length: 100, Magnitude: 2}}, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	// The target's capacity growth over the episode must exceed a peer's
	// by a clear margin.
	grow := func(d int) float64 {
		v := u.Series.Data[kpi.RealCapacity][d].Values
		return (v[199] - v[100]) / v[100]
	}
	if grow(target) < 2*grow(1) {
		t.Fatalf("fragmentation growth target=%v peer=%v", grow(target), grow(1))
	}
	// Offset persists after the episode (fragmentation is not reclaimed).
	v := u.Series.Data[kpi.RealCapacity][target].Values
	if v[250] <= v[199]*0.99 {
		t.Fatal("capacity offset should persist after the episode")
	}
}

func TestResourceHogKeepsRequestsAligned(t *testing.T) {
	u := newUnit(t, 300, 7)
	preReq := mathx.Mean(u.Series.Data[kpi.TotalRequests][1].Values[100:140])
	preCPU := mathx.Mean(u.Series.Data[kpi.CPUUtilization][1].Values[100:140])
	if _, err := Inject(u, []Event{{Type: ResourceHog, DB: 1, Start: 100, Length: 40, Magnitude: 1}}, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	postReq := mathx.Mean(u.Series.Data[kpi.TotalRequests][1].Values[100:140])
	postCPU := mathx.Mean(u.Series.Data[kpi.CPUUtilization][1].Values[100:140])
	if postReq != preReq {
		t.Fatalf("Total Requests should be untouched: %v -> %v", preReq, postReq)
	}
	if postCPU <= preCPU*1.2 {
		t.Fatalf("CPU should inflate: %v -> %v", preCPU, postCPU)
	}
}

func TestLevelShiftAndDrift(t *testing.T) {
	u := newUnit(t, 300, 8)
	k := kpi.InnodbRowsRead
	orig := mathx.Clone(u.Series.Data[k][0].Values)
	if _, err := Inject(u, []Event{
		{Type: LevelShift, DB: 0, Start: 50, Length: 20, Magnitude: 1, KPIs: []kpi.KPI{k}},
		{Type: ConceptDrift, DB: 0, Start: 150, Length: 40, Magnitude: 2, KPIs: []kpi.KPI{k}},
	}, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	now := u.Series.Data[k][0].Values
	if now[55] <= orig[55] {
		t.Fatal("level shift missing")
	}
	// Drift ramps: distortion at the end of the episode exceeds the start.
	startRatio := now[151] / orig[151]
	endRatio := now[189] / orig[189]
	if endRatio <= startRatio {
		t.Fatalf("drift should ramp: start %v end %v", startRatio, endRatio)
	}
	// Points outside episodes are untouched.
	if now[100] != orig[100] {
		t.Fatal("healthy point modified")
	}
}

func TestTypeString(t *testing.T) {
	names := map[Type]string{
		Spike: "spike", LevelShift: "level-shift", ConceptDrift: "concept-drift",
		Stall: "stall", LoadBalanceDefect: "lb-defect",
		Fragmentation: "fragmentation", ResourceHog: "resource-hog",
	}
	for ty, want := range names {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(ty), ty.String(), want)
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Error("unknown type name")
	}
}

func TestGenerateScheduleRespectsRatio(t *testing.T) {
	rng := mathx.NewRNG(9)
	cfg := ScheduleConfig{Ticks: 5000, Databases: 5, TargetRatio: 0.04}
	events := GenerateSchedule(cfg, rng)
	if len(events) == 0 {
		t.Fatal("no events generated")
	}
	total := 0
	for i, e := range events {
		total += e.Length
		if e.Start < 40 {
			t.Fatalf("event %d starts in warmup: %d", i, e.Start)
		}
		if e.DB < 0 || e.DB >= 5 {
			t.Fatalf("event %d bad db", i)
		}
		if i > 0 && e.Start < events[i-1].End() {
			t.Fatalf("events %d and %d overlap", i-1, i)
		}
	}
	ratio := float64(total) / 5000
	if ratio < 0.02 || ratio > 0.05 {
		t.Fatalf("scheduled ratio %v too far from 0.04", ratio)
	}
}

// TestGenerateSchedulePinned pins the schedules drawn at the default
// episode bounds, gap and type list: a SHA-256 digest of every event for
// seeds 1-5. Floats are pinned on amd64 only, as in TestVerdictDigests.
func TestGenerateSchedulePinned(t *testing.T) {
	want := []string{
		"367b8abd9dc3b76bbc3a822982f036c49eab7ae783fa47f02b4592684dfcbbc0",
		"b4f7dbe31deacb9160e72de561ca78ca8b1106aadd7003d2305e49eeec5bfd95",
		"030de573f01c2b2ecc69060f7fa10b7b6a0067cb61da37195fd59b2014028907",
		"11bdec328b078471e0f72364c42bdeb8b2ff4db4668c019b5d229b34f99df1bf",
		"a33ac1ff771705d44d13d01449142dd96dddc6b04a271b45eb2b294aae8a9439",
	}
	for seed := uint64(1); seed <= 5; seed++ {
		events := GenerateSchedule(ScheduleConfig{Ticks: 3000, Databases: 5, TargetRatio: 0.04}, mathx.NewRNG(seed))
		h := sha256.New()
		for _, e := range events {
			fmt.Fprintf(h, "%d %d %d %d %v %v\n", e.Type, e.DB, e.Start, e.Length, e.Magnitude, e.KPIs)
		}
		got := fmt.Sprintf("%x", h.Sum(nil))
		if runtime.GOARCH == "amd64" && got != want[seed-1] {
			t.Errorf("seed %d: schedule digest %s, pinned %s", seed, got, want[seed-1])
		}
	}
}

func TestGenerateScheduleDegenerate(t *testing.T) {
	rng := mathx.NewRNG(1)
	if GenerateSchedule(ScheduleConfig{Ticks: 0, Databases: 5, TargetRatio: 0.04}, rng) != nil {
		t.Fatal("zero ticks should produce no events")
	}
	if GenerateSchedule(ScheduleConfig{Ticks: 100, Databases: 5, TargetRatio: 0}, rng) != nil {
		t.Fatal("zero ratio should produce no events")
	}
}

func TestScheduledInjectionEndToEnd(t *testing.T) {
	u := newUnit(t, 2000, 10)
	rng := mathx.NewRNG(11)
	events := GenerateSchedule(ScheduleConfig{Ticks: 2000, Databases: 5, TargetRatio: 0.04}, rng)
	labels, err := Inject(u, events, rng)
	if err != nil {
		t.Fatal(err)
	}
	if labels.Ratio() < 0.02 || labels.Ratio() > 0.05 {
		t.Fatalf("ratio = %v", labels.Ratio())
	}
	if len(labels.Events) != len(events) {
		t.Fatal("resolved events missing")
	}
	for _, e := range labels.Events {
		if e.KPIs == nil {
			t.Fatal("event KPI set should be resolved after injection")
		}
	}
}

// Property: injection never produces NaN/Inf or negative values, never
// pushes CPU above 100, and labels exactly cover the event ranges.
func TestInjectionSanityProperty(t *testing.T) {
	f := func(seed uint32, typRaw, dbRaw, startRaw, lenRaw uint8) bool {
		u, err := cluster.Simulate(cluster.Config{
			Name: "p", Ticks: 300, Seed: uint64(seed),
		})
		if err != nil {
			return false
		}
		e := anomalyEventFor(typRaw, dbRaw, startRaw, lenRaw)
		labels, err := Inject(u, []Event{e}, mathx.NewRNG(uint64(seed)+1))
		if err != nil {
			return false
		}
		for k := 0; k < kpi.Count; k++ {
			for d := 0; d < 5; d++ {
				for _, v := range u.Series.Data[k][d].Values {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						return false
					}
					if k == int(kpi.CPUUtilization) && v > 100 {
						return false
					}
				}
			}
		}
		for tk := 0; tk < 300; tk++ {
			inEvent := tk >= e.Start && tk < e.End()
			if labels.Point[tk] != inEvent {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25} // each case simulates a unit
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// anomalyEventFor maps raw fuzz bytes onto a valid event.
func anomalyEventFor(typRaw, dbRaw, startRaw, lenRaw uint8) Event {
	e := Event{
		Type:      Type(int(typRaw) % NumTypes),
		DB:        int(dbRaw) % 5,
		Start:     40 + int(startRaw)%150,
		Length:    5 + int(lenRaw)%40,
		Magnitude: 1.2,
	}
	if e.Type == Stall || e.Type == UnitOutage {
		e.Magnitude = 0.9
	}
	return e
}
