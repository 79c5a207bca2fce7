package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/scenario"
	"dbcatcher/internal/window"
)

type explainBody struct {
	Start int `json:"start"`
	Size  int `json:"size"`
	DBs   []struct {
		DB    int    `json:"db"`
		State string `json:"state"`
	} `json:"databases"`
}

// getExplain GETs /api/explain and decodes a 200 answer; it returns the
// status code alone otherwise.
func getExplain(t *testing.T, h http.Handler) (int, explainBody) {
	t.Helper()
	rec := serve(h, "/api/explain")
	var out explainBody
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, out
}

// checkExplains asserts that /api/explain names v's window and states.
func checkExplains(t *testing.T, h http.Handler, step string, v *monitor.Verdict) {
	t.Helper()
	code, got := getExplain(t, h)
	if code != http.StatusOK {
		t.Fatalf("%s: /api/explain answered %d", step, code)
	}
	if got.Start != v.Start || got.Size != v.Size || len(got.DBs) != len(v.States) {
		t.Fatalf("%s: explained [%d,+%d) over %d databases, verdict [%d,+%d) over %d",
			step, got.Start, got.Size, len(got.DBs), v.Start, v.Size, len(v.States))
	}
	for d, e := range got.DBs {
		if e.DB != d || e.State != v.States[d].String() {
			t.Fatalf("%s: db%d explained %q, verdict says %v", step, d, e.State, v.States[d])
		}
	}
}

// TestExplainServesTheVerdictsEvidence pins /api/explain to the judgment it
// explains: across a mid-stream promotion, after every judged verdict the
// route names that verdict's window and final states; a threshold swap
// before the next verdict changes nothing it serves; and a server seeded
// from persisted history has nothing to explain until it judges a round.
func TestExplainServesTheVerdictsEvidence(t *testing.T) {
	var storm scenario.Scenario
	for _, sc := range scenario.All() {
		if sc.Name == "failover-storm" {
			storm = sc
		}
	}
	setup, err := storm.Build(scenario.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(setup.Promotions) == 0 {
		t.Fatal("failover-storm scheduled no promotion")
	}
	newServer := func() (*Server, *cluster.Collector, http.Handler) {
		o, err := monitor.NewOnline(detect.Config{
			Thresholds: window.DefaultThresholds(kpi.Count),
		}, kpi.Count, setup.Series.Databases)
		if err != nil {
			t.Fatal(err)
		}
		col, err := cluster.NewCollector(setup.Series, setup.Plan)
		if err != nil {
			t.Fatal(err)
		}
		s := New(o, "unit-test", 64)
		return s, col, NewFleet([]*Server{s}).Handler()
	}

	s, col, h := newServer()
	if code, _ := getExplain(t, h); code != http.StatusNotFound {
		t.Fatalf("before any verdict: /api/explain answered %d, want 404", code)
	}
	var judged []monitor.Verdict
	var promotedAt []int
	var last *monitor.Verdict
	for tick := 0; ; tick++ {
		for _, p := range setup.Promotions {
			if p.Tick == tick {
				if err := s.online.SetPrimary(p.NewPrimary); err != nil {
					t.Fatal(err)
				}
				promotedAt = append(promotedAt, tick)
			}
		}
		sample, ok := col.Next()
		if !ok {
			break
		}
		v, err := s.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil || v.Health == detect.HealthSkipped {
			continue
		}
		checkExplains(t, h, "verdict at tick "+strconv.Itoa(v.Tick), v)
		judged = append(judged, *v)
		last = v
	}
	if len(judged) == 0 || len(promotedAt) == 0 || last.Tick <= promotedAt[0] {
		t.Fatalf("stream judged %d verdicts around promotions at %v: nothing after a promotion was explained", len(judged), promotedAt)
	}

	// A threshold swap lands between verdicts: the route still explains
	// the newest verdict as it was judged, not the window re-judged under
	// the new thresholds.
	body, _ := json.Marshal(thresholdsJSON{Alpha: fill(kpi.Count, 0.8), Theta: 0.1, MaxTolerance: 0})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/thresholds", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("threshold swap answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	checkExplains(t, h, "after the threshold swap", last)

	// A restarted server holds its history but no evidence: 404 until its
	// judge resolves a round, then that round.
	s2, col2, h2 := newServer()
	s2.RestoreHistory(judged)
	for {
		if code, _ := getExplain(t, h2); code != http.StatusNotFound {
			t.Fatalf("restored server before its first judged round: /api/explain answered %d, want 404", code)
		}
		sample, ok := col2.Next()
		if !ok {
			t.Fatal("stream ended before the restored server judged a round")
		}
		v, err := s2.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil && v.Health != detect.HealthSkipped {
			checkExplains(t, h2, "restored server's first verdict", v)
			break
		}
	}
}

func fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestExplainBesidePush reads /api/explain while another goroutine pushes
// a stream: /api/explain takes only the judge's lock, and every answer
// must name one judged verdict's window and states whole.
func TestExplainBesidePush(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{Name: "c", Ticks: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	o, err := monitor.NewOnline(detect.Config{Thresholds: window.DefaultThresholds(kpi.Count)}, kpi.Count, u.Series.Databases)
	if err != nil {
		t.Fatal(err)
	}
	s := New(o, "unit-test", 64)
	h := NewFleet([]*Server{s}).Handler()

	judged := map[int]*monitor.Verdict{} // by window start; written by the pusher only
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		sample := make([][]float64, kpi.Count)
		for k := range sample {
			sample[k] = make([]float64, u.Series.Databases)
		}
		for tick := 0; tick < u.Series.Len(); tick++ {
			for k := range sample {
				for d := range sample[k] {
					sample[k][d] = u.Series.Data[k][d].At(tick)
				}
			}
			v, err := s.Push(sample)
			if err != nil {
				t.Error(err)
				return
			}
			if v != nil && v.Health != detect.HealthSkipped {
				judged[v.Start] = v
			}
		}
	}()
	var answers []explainBody
	for done := false; !done; {
		select {
		case <-pushed:
			done = true
		default:
		}
		if code, got := getExplain(t, h); code == http.StatusOK {
			answers = append(answers, got)
		} else if code != http.StatusNotFound {
			t.Fatalf("/api/explain answered %d", code)
		}
	}
	if len(answers) == 0 || len(judged) == 0 {
		t.Fatalf("%d answers over %d judged verdicts: nothing read beside a push", len(answers), len(judged))
	}
	for _, a := range answers {
		v := judged[a.Start]
		if v == nil || a.Size != v.Size || len(a.DBs) != len(v.States) {
			t.Fatalf("answer [%d,+%d) names no judged verdict", a.Start, a.Size)
		}
		for d, e := range a.DBs {
			if e.State != v.States[d].String() {
				t.Fatalf("answer [%d,+%d): db%d %q, verdict says %v", a.Start, a.Size, d, e.State, v.States[d])
			}
		}
	}
}
