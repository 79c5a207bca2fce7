package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, _, ts := newTestUnit(t)
	return s, ts
}

// newTestUnit serves one unit through the daemon's surface.
func newTestUnit(t *testing.T) (*Server, *Fleet, *httptest.Server) {
	t.Helper()
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
	}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := New(o, "unit-test", 16)
	f := NewFleet([]*Server{s})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return s, f, ts
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var body map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != 200 || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, body)
	}
}

func TestStatusAndVerdictsFlow(t *testing.T) {
	s, ts := newTestServer(t)
	// Stream a simulated unit with a stall through the server.
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 200, Seed: 1, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := anomaly.Inject(u, []anomaly.Event{
		{Type: anomaly.Stall, DB: 2, Start: 80, Length: 40, Magnitude: 0.9},
	}, mathx.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	sample := make([][]float64, kpi.Count)
	for k := range sample {
		sample[k] = make([]float64, 5)
	}
	for tick := 0; tick < 200; tick++ {
		for k := 0; k < kpi.Count; k++ {
			for d := 0; d < 5; d++ {
				sample[k][d] = u.Series.Data[k][d].At(tick)
			}
		}
		if _, err := s.Push(sample); err != nil {
			t.Fatal(err)
		}
	}
	var status map[string]interface{}
	getJSON(t, ts.URL+"/api/status", &status)
	if status["ticksIngested"].(float64) != 200 {
		t.Fatalf("ticks = %v", status["ticksIngested"])
	}
	if status["abnormalVerdicts"].(float64) < 1 {
		t.Fatal("no abnormal verdicts recorded")
	}
	var verdicts []map[string]interface{}
	getJSON(t, ts.URL+"/api/verdicts?limit=5", &verdicts)
	if len(verdicts) == 0 || len(verdicts) > 5 {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
	// Bad limit.
	resp, _ := http.Get(ts.URL + "/api/verdicts?limit=-2")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestThresholdsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	var th struct {
		Alpha        []float64 `json:"alpha"`
		Theta        float64   `json:"theta"`
		MaxTolerance int       `json:"maxTolerance"`
	}
	getJSON(t, ts.URL+"/api/thresholds", &th)
	if len(th.Alpha) != kpi.Count {
		t.Fatalf("alpha count = %d", len(th.Alpha))
	}
	// Update.
	th.Theta = 0.19
	buf, _ := json.Marshal(th)
	resp, err := http.Post(ts.URL+"/api/thresholds", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post status = %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/api/thresholds", &th)
	if th.Theta != 0.19 {
		t.Fatalf("theta = %v after update", th.Theta)
	}
	// Invalid thresholds rejected.
	bad := th
	bad.Alpha = bad.Alpha[:2]
	buf, _ = json.Marshal(bad)
	resp, err = http.Post(ts.URL+"/api/thresholds", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid thresholds status = %d", resp.StatusCode)
	}
}

// A POST body over the bound is answered 413 before it is decoded, on
// both routes that decode JSON, and changes nothing.
func TestOversizedBodiesAnswer413(t *testing.T) {
	s, f, _ := newTestUnit(t)
	fb := feedback.NewStore(8)
	s.SetFeedback(fb)
	before := s.online.Thresholds()
	// One 1 MiB JSON document: a threshold set whose alpha runs far past
	// the bound.
	var big bytes.Buffer
	big.WriteString(`{"theta":0.2,"maxTolerance":1,"alpha":[`)
	for big.Len() < 1<<20 {
		big.WriteString("0.5,")
	}
	big.WriteString("0.5]}")
	h := f.Handler()
	for _, route := range []string{"/api/thresholds", "/api/feedback"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(big.Bytes())))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a 1 MiB body = %d %s, want 413", route, rec.Code, rec.Body.Bytes())
		}
	}
	if got := s.online.Thresholds(); !reflect.DeepEqual(got, before) {
		t.Fatalf("thresholds changed by a refused body: %+v, was %+v", got, before)
	}
	if recs := fb.Snapshot(); len(recs) != 0 {
		t.Fatalf("feedback ring holds %d records after a refused body", len(recs))
	}
}

func TestKPIsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var kpis []map[string]interface{}
	getJSON(t, ts.URL+"/api/kpis", &kpis)
	if len(kpis) != kpi.Count {
		t.Fatalf("kpis = %d", len(kpis))
	}
	if kpis[2]["name"] != "CPU Utilization" {
		t.Fatalf("kpi 2 = %v", kpis[2]["name"])
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	// Before any verdict: 404.
	resp, err := http.Get(ts.URL + "/api/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-verdict status = %d", resp.StatusCode)
	}
	// Stream enough ticks for a verdict.
	u, err := cluster.Simulate(cluster.Config{Name: "u", Ticks: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sample := make([][]float64, kpi.Count)
	for k := range sample {
		sample[k] = make([]float64, 5)
	}
	for tick := 0; tick < 40; tick++ {
		for k := 0; k < kpi.Count; k++ {
			for d := 0; d < 5; d++ {
				sample[k][d] = u.Series.Data[k][d].At(tick)
			}
		}
		if _, err := s.Push(sample); err != nil {
			t.Fatal(err)
		}
	}
	var out struct {
		Start int `json:"start"`
		Size  int `json:"size"`
		DBs   []struct {
			DB    int    `json:"db"`
			State string `json:"state"`
		} `json:"databases"`
	}
	getJSON(t, ts.URL+"/api/explain", &out)
	if len(out.DBs) != 5 {
		t.Fatalf("databases = %d", len(out.DBs))
	}
	if out.Size < 20 {
		t.Fatalf("size = %d", out.Size)
	}
}

func TestStatusHealthBlock(t *testing.T) {
	s, ts := newTestServer(t)
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 300, Seed: 7, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewCollector(u.Series, workload.FaultPlan{
		Seed:         5,
		DropTickRate: 0.02,
		DropCellRate: 0.01,
		Silences:     []workload.Silence{{DB: 2, Start: 100, Length: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	for {
		sample, ok := c.Next()
		if !ok {
			break
		}
		v, err := s.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil && v.Health != detect.HealthOK {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("fault plan produced no degraded/skipped verdicts")
	}

	var status struct {
		Health struct {
			GapCells         int   `json:"gapCells"`
			MissedTicks      int   `json:"missedTicks"`
			Deactivations    int   `json:"deactivations"`
			Reactivations    int   `json:"reactivations"`
			DegradedVerdicts int   `json:"degradedVerdicts"`
			SkippedRounds    int   `json:"skippedRounds"`
			Deactivated      []int `json:"deactivated"`
			SilentRecent     []int `json:"silentRecent"`
		} `json:"health"`
	}
	getJSON(t, ts.URL+"/api/status", &status)
	h := status.Health
	if h.GapCells == 0 || h.MissedTicks == 0 {
		t.Fatalf("health block missing gap accounting: %+v", h)
	}
	if h.Deactivations < 1 || h.Reactivations < 1 {
		t.Fatalf("silent db not benched+recovered in health block: %+v", h)
	}
	if h.DegradedVerdicts == 0 {
		t.Fatalf("degradedVerdicts not surfaced: %+v", h)
	}
	if len(h.Deactivated) != 0 {
		t.Fatalf("recovered unit still lists benched dbs: %v", h.Deactivated)
	}
	if len(h.SilentRecent) != 5 {
		t.Fatalf("silentRecent should have one slot per db: %v", h.SilentRecent)
	}

	// Verdict JSON carries the health fields through the wire format.
	var verdicts []map[string]interface{}
	getJSON(t, ts.URL+"/api/verdicts?limit=500", &verdicts)
	sawHealthField := false
	for _, v := range verdicts {
		hv, ok := v["health"].(string)
		if !ok {
			t.Fatalf("verdict missing health field: %v", v)
		}
		if _, ok := v["gapCells"].(float64); !ok {
			t.Fatalf("verdict missing gapCells field: %v", v)
		}
		if hv == "degraded" || hv == "skipped" {
			sawHealthField = true
		}
	}
	if !sawHealthField {
		t.Fatal("no degraded/skipped verdict crossed the JSON API")
	}
}

// --- Persistence, feedback, and threshold-atomicity tests ---

func TestFeedbackEndpoint(t *testing.T) {
	s, ts := newTestServer(t)

	// No store attached: 404.
	resp := getJSON(t, ts.URL+"/api/feedback", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unattached feedback store: %d", resp.StatusCode)
	}

	s.SetFeedback(feedback.NewStore(8))

	// Invalid marks are rejected.
	for _, bad := range []string{
		`{"start": -1, "size": 20}`,
		`{"start": 0, "size": 0}`,
		`{not json`,
	} {
		resp, err := http.Post(ts.URL+"/api/feedback", "application/json", bytes.NewBufferString(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("bad mark %q accepted", bad)
		}
	}

	// Valid marks round-trip.
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(map[string]interface{}{
			"start": i * 20, "size": 20, "predicted": i%2 == 0, "actual": true,
		})
		resp, err := http.Post(ts.URL+"/api/feedback", "application/json", bytes.NewBuffer(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mark %d rejected: %d", i, resp.StatusCode)
		}
	}
	var got struct {
		Count    int     `json:"count"`
		FMeasure float64 `json:"fMeasure"`
		Records  []struct {
			Start     int  `json:"start"`
			Size      int  `json:"size"`
			Predicted bool `json:"predicted"`
			Actual    bool `json:"actual"`
		} `json:"records"`
	}
	if resp := getJSON(t, ts.URL+"/api/feedback", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback GET: %d", resp.StatusCode)
	}
	if got.Count != 3 || len(got.Records) != 3 {
		t.Fatalf("feedback GET = %+v", got)
	}
	if got.Records[1].Start != 20 || !got.Records[1].Actual || got.Records[1].Predicted {
		t.Fatalf("record order/content wrong: %+v", got.Records)
	}
	if got.FMeasure <= 0 {
		t.Fatalf("fMeasure = %v", got.FMeasure)
	}
}

func TestStatusPersistenceBlock(t *testing.T) {
	_, f, ts := newTestUnit(t)
	var body map[string]interface{}
	getJSON(t, ts.URL+"/api/status", &body)
	if _, present := body["persistence"]; present {
		t.Fatal("persistence block present without a provider")
	}
	f.SetPersistence(func() interface{} {
		return map[string]interface{}{"durableTick": 42, "fsyncPolicy": "interval"}
	})
	body = nil
	getJSON(t, ts.URL+"/api/status", &body)
	pers, ok := body["persistence"].(map[string]interface{})
	if !ok {
		t.Fatalf("persistence block = %T", body["persistence"])
	}
	if pers["durableTick"] != float64(42) || pers["fsyncPolicy"] != "interval" {
		t.Fatalf("persistence block content = %v", pers)
	}
}

func TestRestoreHistoryDedupesRegeneratedVerdicts(t *testing.T) {
	s, _ := newTestServer(t)
	mk := func(tick int) monitor.Verdict {
		var v monitor.Verdict
		v.Tick = tick
		v.Start = tick - 20
		v.Size = 20
		v.AbnormalDB = -1
		return v
	}
	s.RestoreHistory([]monitor.Verdict{mk(20), mk(40), mk(60)})

	s.mu.Lock()
	if s.history.len() != 3 || s.restoredThrough != 60 {
		t.Fatalf("restored %d verdicts, through %d", s.history.len(), s.restoredThrough)
	}
	s.mu.Unlock()

	// Regenerated verdicts (tick <= restoredThrough) are dropped; fresh
	// ones append. Drive Push's recording path directly.
	for _, tick := range []int{40, 60, 80} {
		v := mk(tick)
		s.mu.Lock()
		s.record(&v)
		s.mu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.history.len() != 4 {
		t.Fatalf("verdict buffer holds %d entries, want 4 (3 restored + 1 fresh)", s.history.len())
	}
	if s.history.lastTick() != 80 {
		t.Fatalf("fresh verdict lost: last tick %d", s.history.lastTick())
	}
}

func TestRestoreHistoryBoundsBuffer(t *testing.T) {
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
	}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := New(o, "bounded", 4)
	vs := make([]monitor.Verdict, 10)
	for i := range vs {
		vs[i].Tick = (i + 1) * 10
	}
	s.RestoreHistory(vs)
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.history.view.Load().entries[0].tick
	if s.history.len() != 4 || first != 70 || s.restoredThrough != 100 {
		t.Fatalf("bounded restore: %d entries, first tick %d, through %d",
			s.history.len(), first, s.restoredThrough)
	}
}

// A threshold POST must apply atomically with respect to concurrent pushes
// and concurrent GETs: a reader can never observe a half-applied set (run
// under -race).
func TestThresholdsPostAtomicUnderPush(t *testing.T) {
	s, ts := newTestServer(t)
	u, err := cluster.Simulate(cluster.Config{
		Name: "c", Ticks: 600, Seed: 5, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two coherent sets: either all alphas 0.65/theta 0.25, or all alphas
	// 0.60/theta 0.30. Any mix is a torn read.
	setA := window.DefaultThresholds(kpi.Count)
	setB := setA.Clone()
	for i := range setB.Alpha {
		setB.Alpha[i] = 0.60
	}
	setB.Theta = 0.30

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: alternate POSTs of the two sets
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			set := setA
			if i%2 == 1 {
				set = setB
			}
			body, _ := json.Marshal(thresholdsJSON{Alpha: set.Alpha, Theta: set.Theta, MaxTolerance: set.MaxTolerance})
			resp, err := http.Post(ts.URL+"/api/thresholds", "application/json", bytes.NewBuffer(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("POST thresholds: %d", resp.StatusCode)
				return
			}
		}
	}()
	go func() { // reader: every GET must be wholly one set
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var th thresholdsJSON
			getJSON(t, ts.URL+"/api/thresholds", &th)
			isA := th.Theta == setA.Theta
			want := setA.Alpha[0]
			if !isA {
				if th.Theta != setB.Theta {
					t.Errorf("torn theta %v", th.Theta)
					return
				}
				want = setB.Alpha[0]
			}
			for _, a := range th.Alpha {
				if a != want {
					t.Errorf("torn threshold read: theta=%v alpha=%v", th.Theta, th.Alpha)
					return
				}
			}
		}
	}()

	sample := make([][]float64, u.Series.KPIs)
	for k := range sample {
		sample[k] = make([]float64, u.Series.Databases)
	}
	for tick := 0; tick < 600; tick++ {
		for k := 0; k < u.Series.KPIs; k++ {
			for d := 0; d < u.Series.Databases; d++ {
				sample[k][d] = u.Series.Data[k][d].At(tick)
			}
		}
		if _, err := s.Push(sample); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
