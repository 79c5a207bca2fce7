package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/fleet"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// seedAggregator drives a small correlated fault through a real
// aggregator: one closed two-member cluster plus one still-open incident.
func seedAggregator() *incident.Aggregator {
	a := incident.New(incident.Config{ProximityTicks: 16, CloseAfter: 30})
	a.ObserveRound(120, []incident.Event{
		{Unit: 0, DB: 2, KPIs: incident.KPISet(0).With(2), Start: 100, End: 120},
		{Unit: 1, DB: 2, KPIs: incident.KPISet(0).With(12), Start: 104, End: 120},
	})
	for tick := 124; tick <= 180; tick += 4 {
		a.ObserveRound(tick, nil)
	}
	a.ObserveRound(400, []incident.Event{
		{Unit: 2, DB: 0, KPIs: incident.KPISet(0).With(5), Start: 380, End: 400},
	})
	return a
}

type incidentsPageJSON struct {
	Total     int                       `json:"total"`
	Offset    int                       `json:"offset"`
	Limit     int                       `json:"limit"`
	Count     int                       `json:"count"`
	Status    incident.Status           `json:"status"`
	Incidents []*incident.ClusterReport `json:"incidents"`
}

func TestIncidentsEndpoint(t *testing.T) {
	f, ts := newTestFleet(t)
	f.SetIncidents(seedAggregator())

	var body incidentsPageJSON
	if resp := getJSON(t, ts.URL+"/api/incidents", &body); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body.Total != 2 || body.Count != 2 {
		t.Fatalf("total/count = %d/%d, want 2/2", body.Total, body.Count)
	}
	closed, open := body.Incidents[0], body.Incidents[1]
	if closed.Open || len(closed.Members) != 2 {
		t.Fatalf("first row should be the closed 2-member cluster: %+v", closed)
	}
	if !open.Open || open.Members[0].Unit != 2 {
		t.Fatalf("second row should be the open unit-2 cluster: %+v", open)
	}
	if len(closed.Cascade) != 1 || closed.Cascade[0].Lead != 2 {
		t.Fatalf("closed cluster cascade = %+v", closed.Cascade)
	}
	if body.Status.OpenIncidents != 1 || body.Status.ClosedClusters != 1 {
		t.Fatalf("status block = %+v", body.Status)
	}

	// Paging and strict parameter handling.
	if resp := getJSON(t, ts.URL+"/api/incidents?offset=1&limit=1", &body); resp.StatusCode != 200 {
		t.Fatalf("paged status = %d", resp.StatusCode)
	}
	if body.Total != 2 || body.Count != 1 || !body.Incidents[0].Open {
		t.Fatalf("paged row: total/count = %d/%d", body.Total, body.Count)
	}
	status := func(query string) int {
		resp, err := http.Get(ts.URL + "/api/incidents" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, q := range []string{"?offset=-1", "?offset=+1", "?offset=1x", "?limit=0", "?limit=5abc", "?limit=99999999999999999999"} {
		if code := status(q); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, code)
		}
	}
	if code := status("?offset=50"); code != 200 {
		t.Fatalf("offset past end: %d, want 200 empty page", code)
	}
	resp, err := http.Post(ts.URL+"/api/incidents", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: %d, want 405", resp.StatusCode)
	}
}

func TestIncidentsEndpointDisabled(t *testing.T) {
	_, ts := newTestFleet(t)
	resp, err := http.Get(ts.URL + "/api/incidents")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("without aggregator: status %d, want 404", resp.StatusCode)
	}
}

func TestFleetStatusIncidentsBlock(t *testing.T) {
	f, ts := newTestFleet(t)
	f.SetIncidents(seedAggregator())
	var body struct {
		Incidents *incident.Status `json:"incidents"`
	}
	if resp := getJSON(t, ts.URL+"/api/fleet/status", &body); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body.Incidents == nil {
		t.Fatal("no incidents block in fleet status")
	}
	if body.Incidents.ClosedClusters != 1 || body.Incidents.OpenIncidents != 1 {
		t.Fatalf("incidents block = %+v", body.Incidents)
	}
}

// TestVerdictsSinceFilter pins the incremental-polling satellite: strict
// digits-only since= on both the per-unit and fleet verdict endpoints,
// returning only verdicts strictly newer than the given tick.
func TestVerdictsSinceFilter(t *testing.T) {
	_, ts := newTestFleet(t)
	var unitBody struct {
		Count    int           `json:"count"`
		Verdicts []verdictJSON `json:"verdicts"`
	}
	if resp := getJSON(t, ts.URL+"/api/fleet/verdicts?unit=0", &unitBody); resp.StatusCode != 200 {
		t.Fatalf("unit fetch: %d", resp.StatusCode)
	}
	if unitBody.Count < 2 {
		t.Fatalf("need at least 2 verdicts, have %d", unitBody.Count)
	}
	cut := unitBody.Verdicts[unitBody.Count-2].Tick

	var filtered struct {
		Count    int           `json:"count"`
		Verdicts []verdictJSON `json:"verdicts"`
	}
	if resp := getJSON(t, ts.URL+"/api/fleet/verdicts?unit=0&since="+itoa(cut), &filtered); resp.StatusCode != 200 {
		t.Fatalf("since fetch: %d", resp.StatusCode)
	}
	if filtered.Count != 1 || filtered.Verdicts[0].Tick <= cut {
		t.Fatalf("since=%d returned %d verdicts (first tick %d), want exactly the newer one",
			cut, filtered.Count, filtered.Verdicts[0].Tick)
	}
	// since= at the newest tick is an empty page, not an error.
	newest := unitBody.Verdicts[unitBody.Count-1].Tick
	if resp := getJSON(t, ts.URL+"/api/fleet/verdicts?unit=0&since="+itoa(newest), &filtered); resp.StatusCode != 200 || filtered.Count != 0 {
		t.Fatalf("since=newest: status %d count %d, want 200/0", resp.StatusCode, filtered.Count)
	}
	// Malformed since is rejected on both endpoints.
	for _, q := range []string{"?unit=0&since=-1", "?unit=0&since=+5", "?unit=0&since=5abc", "?unit=0&since=99999999999999999999"} {
		resp, err := http.Get(ts.URL + "/api/fleet/verdicts" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestUnitVerdictsSinceFilter(t *testing.T) {
	s, ts := newTestServer(t)
	history := make([]monitor.Verdict, 3)
	for i := range history {
		history[i].Tick = 20 * (i + 1)
		history[i].Start = history[i].Tick - 19
		history[i].Size = 20
		history[i].AbnormalDB = -1
	}
	s.RestoreHistory(history)
	var all []verdictJSON
	if resp := getJSON(t, ts.URL+"/api/verdicts", &all); resp.StatusCode != 200 {
		t.Fatalf("baseline: %d", resp.StatusCode)
	}
	if len(all) < 2 {
		t.Fatalf("need at least 2 verdicts, have %d", len(all))
	}
	cut := all[len(all)-2].Tick
	var filtered []verdictJSON
	if resp := getJSON(t, ts.URL+"/api/verdicts?since="+itoa(cut), &filtered); resp.StatusCode != 200 {
		t.Fatalf("since fetch: %d", resp.StatusCode)
	}
	if len(filtered) != 1 || filtered[0].Tick <= cut {
		t.Fatalf("since=%d returned %d verdicts, want 1 newer", cut, len(filtered))
	}
	for _, q := range []string{"?since=-1", "?since=+5", "?since=5abc", "?since=0x1", "?since=99999999999999999999"} {
		resp, err := http.Get(ts.URL + "/api/verdicts" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestFleetConcurrentServing is the race-enabled coverage satellite:
// readers hammer /api/fleet/status, /api/fleet/verdicts, /api/verdicts and
// /api/incidents while fleet.Monitor.Push rounds (feeding the incident
// aggregator) are in flight. Run under -race this proves the serving path
// and the round scheduler share no unsynchronized state. Every verdict page
// must also be whole: its count matches its entries, its ticks ascend past
// since and stop at the last tick pushed, and each entry is the verdict
// Push returned for that tick, so a read never sees a torn or half-written
// history.
func TestFleetConcurrentServing(t *testing.T) {
	// Long enough that each unit's 16-verdict history evicts and compacts
	// several times while the readers run.
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 1200, Seed: 5, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	const nUnits = 3
	units := make([]*Server, nUnits)
	pushers := make([]fleet.Pusher, nUnits)
	for i := range units {
		o, err := monitor.NewOnline(detect.Config{
			Thresholds: window.DefaultThresholds(kpi.Count),
			Workers:    1,
		}, kpi.Count, 5)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = New(o, "unit", 16)
		pushers[i] = units[i]
	}
	mon, err := fleet.NewMonitor(pushers, 2)
	if err != nil {
		t.Fatal(err)
	}
	agg := incident.New(incident.Config{})
	f := NewFleet(units)
	f.SetIncidents(agg)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	// pushed is the tick of the newest sample handed to a round; no served
	// verdict may be newer.
	var pushed atomic.Int64
	// page decodes one verdicts body, checks its shape and returns its
	// entries.
	page := func(body []byte, fleetRoute bool, unit int) ([]verdictJSON, error) {
		if !fleetRoute {
			var vs []verdictJSON
			return vs, json.Unmarshal(body, &vs)
		}
		var p struct {
			Unit     int           `json:"unit"`
			Name     string        `json:"name"`
			Count    int           `json:"count"`
			Verdicts []verdictJSON `json:"verdicts"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			return nil, err
		}
		if p.Unit != unit || p.Name != "unit" || p.Count != len(p.Verdicts) {
			return nil, fmt.Errorf("envelope unit %d name %q count %d over %d entries", p.Unit, p.Name, p.Count, len(p.Verdicts))
		}
		return p.Verdicts, nil
	}
	type reader struct {
		url             string
		fleetRoute      bool
		unit, since     int
		seen            map[int]verdictJSON // first read of each tick
		pages, nonEmpty int
	}
	readers := []*reader{
		{url: ts.URL + "/api/fleet/verdicts?unit=0", fleetRoute: true, unit: 0, since: -1},
		{url: ts.URL + "/api/fleet/verdicts?unit=2&since=40", fleetRoute: true, unit: 2, since: 40},
		{url: ts.URL + "/api/verdicts?unit=1&since=20&limit=5", unit: 1, since: 20},
	}
	done := make(chan struct{})
	var wg, ready sync.WaitGroup // ready: every verdict reader has read a page
	ready.Add(len(readers))
	for _, rd := range readers {
		rd.seen = map[int]verdictJSON{}
		wg.Add(1)
		go func(rd *reader) {
			defer wg.Done()
			var first sync.Once
			defer first.Do(ready.Done)
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(rd.url)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				newest := int(pushed.Load())
				if err == nil && resp.StatusCode != 200 {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
				var vs []verdictJSON
				if err == nil {
					vs, err = page(body, rd.fleetRoute, rd.unit)
				}
				prev := rd.since
				for _, v := range vs {
					if err != nil {
						break
					}
					if v.Tick <= prev {
						err = fmt.Errorf("tick %d after %d (since %d)", v.Tick, prev, rd.since)
					} else if v.Tick > newest {
						err = fmt.Errorf("tick %d served before tick %d was pushed", v.Tick, newest)
					} else if first, ok := rd.seen[v.Tick]; ok && !reflect.DeepEqual(first, v) {
						err = fmt.Errorf("tick %d read as %+v, earlier as %+v", v.Tick, v, first)
					} else {
						rd.seen[v.Tick] = v
					}
					prev = v.Tick
				}
				if err != nil {
					t.Errorf("%s: %v\n%s", rd.url, err, body)
					return
				}
				rd.pages++
				first.Do(ready.Done)
				if len(vs) > 0 {
					rd.nonEmpty++
				}
			}
		}(rd)
	}
	for _, path := range []string{"/api/fleet/status", "/api/incidents"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(ts.URL + path)
	}

	c, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	ready.Wait()
	samples := make([][][]float64, nUnits)
	returned := make([]map[int]verdictJSON, nUnits)
	for i := range returned {
		returned[i] = map[int]verdictJSON{}
	}
	tick := 0
	for {
		sample, ok := c.Next()
		if !ok {
			break
		}
		for i := range samples {
			samples[i] = sample
		}
		tick++
		pushed.Store(int64(tick))
		verdicts, err := mon.Push(samples)
		if err != nil {
			t.Fatal(err)
		}
		// Feed abnormal verdicts to the aggregator the way the daemon does
		// (KPI attribution elided — unattributed events are legal).
		var events []incident.Event
		for unit, v := range verdicts {
			if v == nil {
				continue
			}
			returned[unit][v.Tick] = toVerdictJSON(v)
			if v.Abnormal {
				events = append(events, incident.Event{
					Unit: unit, DB: v.AbnormalDB, Start: v.Start, End: v.Start + v.Size,
				})
			}
		}
		agg.ObserveRound(tick, events)
	}
	close(done)
	wg.Wait()

	for _, rd := range readers {
		if rd.nonEmpty == 0 {
			t.Errorf("%s: no verdict read (%d pages)", rd.url, rd.pages)
		}
		for tick, got := range rd.seen {
			if want, ok := returned[rd.unit][tick]; !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: tick %d served as %+v, Push returned %+v", rd.url, tick, got, want)
			}
		}
	}
}
