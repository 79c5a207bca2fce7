package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// newTestFleet builds a 3-unit fleet with real verdict history: every
// unit's judge is fed the same simulated series through its Server.
func newTestFleet(t *testing.T) (*Fleet, *httptest.Server) {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 120, Seed: 5, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	units := make([]*Server, 3)
	for i := range units {
		o, err := monitor.NewOnline(detect.Config{
			Thresholds: window.DefaultThresholds(kpi.Count),
			Workers:    1,
		}, kpi.Count, 5)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = New(o, []string{"unit-a", "unit-b", "unit-c"}[i], 16)
	}
	for {
		sample, ok := c.Next()
		if !ok {
			break
		}
		for _, s := range units {
			if _, err := s.Push(sample); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := NewFleet(units)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return f, ts
}

type fleetStatusJSON struct {
	Units  int `json:"units"`
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
	Count  int `json:"count"`
	Totals struct {
		TicksIngested int `json:"ticksIngested"`
		Verdicts      int `json:"verdicts"`
	} `json:"totals"`
	Page []fleetUnitJSON `json:"page"`
}

func TestFleetStatusAggregation(t *testing.T) {
	_, ts := newTestFleet(t)
	var body fleetStatusJSON
	resp := getJSON(t, ts.URL+"/api/fleet/status", &body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body.Units != 3 || body.Count != 3 || len(body.Page) != 3 {
		t.Fatalf("units/count/page = %d/%d/%d, want 3/3/3", body.Units, body.Count, len(body.Page))
	}
	if body.Totals.TicksIngested != 3*120 {
		t.Fatalf("total ticks %d, want %d", body.Totals.TicksIngested, 3*120)
	}
	if body.Totals.Verdicts == 0 {
		t.Fatal("no verdicts aggregated")
	}
	perUnit := body.Totals.Verdicts / 3
	for i, row := range body.Page {
		if row.Unit != i {
			t.Fatalf("page[%d].unit = %d", i, row.Unit)
		}
		if row.Verdicts != perUnit {
			t.Fatalf("unit %d verdicts %d, want %d", i, row.Verdicts, perUnit)
		}
		if row.Name == "" || row.LastVerdictTick < 0 {
			t.Fatalf("unit %d summary incomplete: %+v", i, row)
		}
	}
}

func TestFleetStatusPagination(t *testing.T) {
	_, ts := newTestFleet(t)
	get := func(query string) (fleetStatusJSON, int) {
		var body fleetStatusJSON
		resp, err := http.Get(ts.URL + "/api/fleet/status" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
		}
		return body, resp.StatusCode
	}

	// Pages walk the units in order.
	body, code := get("?limit=2")
	if code != 200 || body.Count != 2 || body.Page[0].Unit != 0 || body.Page[1].Unit != 1 {
		t.Fatalf("limit=2 page: code %d, %+v", code, body.Page)
	}
	body, code = get("?offset=2&limit=2")
	if code != 200 || body.Count != 1 || body.Page[0].Unit != 2 {
		t.Fatalf("offset=2 page: code %d, count %d", code, body.Count)
	}
	// Boundary pages are empty, not errors.
	body, code = get("?offset=3")
	if code != 200 || body.Count != 0 || len(body.Page) != 0 {
		t.Fatalf("offset at end: code %d, count %d", code, body.Count)
	}
	body, code = get("?offset=1000000")
	if code != 200 || body.Count != 0 {
		t.Fatalf("offset past end: code %d, count %d", code, body.Count)
	}
	// A huge-but-well-formed limit is clamped, not an error.
	if _, code = get("?limit=999999"); code != 200 {
		t.Fatalf("clampable limit rejected: %d", code)
	}
	// Malformed pagination is rejected exactly like the per-unit API.
	for _, q := range []string{
		"?limit=0", "?limit=-1", "?limit=+5", "?limit=5abc", "?limit=abc",
		"?limit=99999999999999999999", "?offset=-1", "?offset=+2",
		"?offset=1x", "?offset=99999999999999999999",
	} {
		if _, code := get(q); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, code)
		}
	}
	// Wrong method.
	resp, err := http.Post(ts.URL+"/api/fleet/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestFleetVerdicts(t *testing.T) {
	_, ts := newTestFleet(t)
	var body struct {
		Unit     int                      `json:"unit"`
		Name     string                   `json:"name"`
		Count    int                      `json:"count"`
		Verdicts []map[string]interface{} `json:"verdicts"`
	}
	resp := getJSON(t, ts.URL+"/api/fleet/verdicts?unit=1", &body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body.Unit != 1 || body.Name != "unit-b" || body.Count == 0 || len(body.Verdicts) != body.Count {
		t.Fatalf("unit verdicts envelope: %+v", body)
	}
	resp = getJSON(t, ts.URL+"/api/fleet/verdicts?unit=2&limit=3", &body)
	if resp.StatusCode != 200 || body.Count != 3 {
		t.Fatalf("limited page: %d verdicts, status %d", body.Count, resp.StatusCode)
	}

	status := func(query string) int {
		resp, err := http.Get(ts.URL + "/api/fleet/verdicts" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// The unit key is mandatory and strictly parsed; out-of-range is 404.
	for _, q := range []string{"", "?unit=", "?unit=abc", "?unit=+1", "?unit=1x", "?unit=-1"} {
		if code := status(q); code != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", q, code)
		}
	}
	if code := status("?unit=3"); code != http.StatusNotFound {
		t.Fatalf("unit=3: status %d, want 404", code)
	}
	if code := status("?unit=99999999999999999999"); code != http.StatusBadRequest {
		t.Fatalf("overflow unit: status %d, want 400", code)
	}
	// Strict limit parsing, same as the per-unit endpoint.
	for _, q := range []string{"?unit=0&limit=0", "?unit=0&limit=5abc", "?unit=0&limit=+5"} {
		if code := status(q); code != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", q, code)
		}
	}
}

// Satellite regression pin: the per-unit /api/verdicts limit parameter is
// parsed strictly (the old fmt.Sscanf path accepted "5abc" as 5 and "+5"
// as 5) and capped at the history bound.
func TestVerdictsLimitStrictParsing(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{
		"?limit=0", "?limit=+5", "?limit=5abc", "?limit=abc", "?limit=%205",
		"?limit=0x5", "?limit=99999999999999999999", "?limit=-2",
	} {
		resp, err := http.Get(ts.URL + "/api/verdicts" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	// Well-formed values — including huge clampable ones — still serve.
	for _, q := range []string{"", "?limit=5", "?limit=007", "?limit=999999"} {
		var out []map[string]interface{}
		if resp := getJSON(t, ts.URL+"/api/verdicts"+q, &out); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d, want 200", q, resp.StatusCode)
		}
	}
}

// fedUnits builds n units whose judges have each resolved a round, with a
// feedback store and a relearn status attached, so every unit-scoped route
// answers 200 once it selects one.
func fedUnits(t *testing.T, n int) []*Server {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{Name: "u", Ticks: 60, Seed: 5, Profile: workload.TencentIrregular})
	if err != nil {
		t.Fatal(err)
	}
	units := make([]*Server, n)
	for i := range units {
		o, err := monitor.NewOnline(detect.Config{
			Thresholds: window.DefaultThresholds(kpi.Count),
			Workers:    1,
		}, kpi.Count, 5)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = New(o, fmt.Sprintf("unit-%d", i), 16)
		units[i].SetFeedback(feedback.NewStore(8))
		units[i].SetRelearn(func() interface{} { return map[string]string{"state": "idle"} }, nil)
		c, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			sample, ok := c.Next()
			if !ok {
				break
			}
			if _, err := units[i].Push(sample); err != nil {
				t.Fatal(err)
			}
		}
	}
	return units
}

// TestRouteTable runs the one surface over 0, 1 and 3 units and applies
// the unit rule to every unit-scoped route: an absent unit selects the
// only unit of a one-unit surface, is required with several and selects
// nothing with none; a malformed one is 400 and one past the last unit
// 404. /api/status?unit=i carries unit i's block and the daemon-wide
// blocks of /api/fleet/status.
func TestRouteTable(t *testing.T) {
	routes := []string{
		"/api/status", "/api/verdicts", "/api/explain", "/api/thresholds",
		"/api/feedback", "/api/relearn", "/api/fleet/verdicts",
	}
	for _, n := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("units=%d", n), func(t *testing.T) {
			f := NewFleet(fedUnits(t, n))
			f.SetPersistence(func() interface{} { return map[string]int{"durableTick": 7} })
			f.SetScrape(func() interface{} { return map[string]int{"rounds": 3} })
			f.SetReplication(func() interface{} { return map[string]int{"lastSeq": 9} })
			f.SetRole(func() interface{} { return map[string]string{"role": "primary"} })
			h := f.Handler()
			get := func(url string) (int, map[string]interface{}) {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				var body map[string]interface{}
				_ = json.Unmarshal(rec.Body.Bytes(), &body) // arrays and plain-text errors stay nil
				return rec.Code, body
			}

			type probe struct {
				query string
				want  int // for a route that needs a unit
			}
			probes := []probe{{"", http.StatusOK}, {"?unit=0", http.StatusOK}}
			switch n {
			case 0:
				probes = []probe{{"", http.StatusNotFound}, {"?unit=0", http.StatusNotFound}}
			case 3:
				probes[0].want = http.StatusBadRequest
				probes = append(probes, probe{"?unit=2", http.StatusOK})
			}
			probes = append(probes,
				probe{fmt.Sprintf("?unit=%d", n), http.StatusNotFound},
				probe{"?unit=+1", http.StatusBadRequest})
			for _, route := range routes {
				for _, p := range probes {
					want := p.want
					if route == "/api/status" && n == 0 && p.query == "" {
						want = http.StatusOK // the daemon-wide blocks alone
					}
					if code, _ := get(route + p.query); code != want {
						t.Errorf("GET %s%s = %d, want %d", route, p.query, code, want)
					}
				}
			}

			code, fleetDoc := get("/api/fleet/status")
			if code != http.StatusOK || fleetDoc["units"] != float64(n) {
				t.Fatalf("/api/fleet/status = %d %v", code, fleetDoc)
			}
			blocks := []string{"server", "persistence", "scrape", "replication", "role"}
			sameBlocks := func(url string, doc map[string]interface{}) {
				t.Helper()
				for _, b := range blocks {
					if doc[b] == nil || !reflect.DeepEqual(doc[b], fleetDoc[b]) {
						t.Errorf("%s %q block %v, /api/fleet/status has %v", url, b, doc[b], fleetDoc[b])
					}
				}
			}
			if n == 0 {
				_, doc := get("/api/status")
				if _, ok := doc["unit"]; ok || len(doc) != len(blocks) {
					t.Errorf("/api/status with no unit = %v, want the daemon-wide blocks alone", doc)
				}
				sameBlocks("/api/status", doc)
			}
			for i := 0; i < n; i++ {
				url := fmt.Sprintf("/api/status?unit=%d", i)
				_, doc := get(url)
				if doc["unit"] != fmt.Sprintf("unit-%d", i) {
					t.Errorf("%s names unit %v", url, doc["unit"])
				}
				sameBlocks(url, doc)
			}
		})
	}
}
