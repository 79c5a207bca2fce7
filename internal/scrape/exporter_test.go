package scrape

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newExporterServer(t *testing.T, kpis, dbs int) (*Feed, *Exporter, *httptest.Server) {
	t.Helper()
	feed := NewFeed(kpis, dbs)
	exp := NewExporter(feed)
	ts := httptest.NewServer(exp.Handler())
	t.Cleanup(ts.Close)
	return feed, exp, ts
}

func get(t *testing.T, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func TestExporterServesPublishedTick(t *testing.T) {
	feed, _, ts := newExporterServer(t, 3, 2)

	// Before the first publish: 503.
	resp, _, err := get(t, ts.URL+"/db/0/kpis")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish = %v, %v", resp.StatusCode, err)
	}

	sample := [][]float64{{1, 2}, {3, 4}, {5, math.NaN()}}
	if err := feed.Publish(9, sample); err != nil {
		t.Fatal(err)
	}
	for db, want := range [][]float64{{1, 3, 5}, {2, 4, math.NaN()}} {
		resp, body, err := get(t, ts.URL+"/db/"+string(rune('0'+db))+"/kpis")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("db %d: %v, %v", db, resp.StatusCode, err)
		}
		var p Payload
		if err := ParseBody(body, &p, FormatJSON); err != nil {
			t.Fatalf("db %d: %v", db, err)
		}
		if p.Tick != 9 || p.DB != db || len(p.Values) != 3 {
			t.Fatalf("db %d payload = %+v", db, p)
		}
		for k, v := range want {
			if math.IsNaN(v) != math.IsNaN(p.Values[k]) || (!math.IsNaN(v) && v != p.Values[k]) {
				t.Fatalf("db %d kpi %d = %v, want %v", db, k, p.Values[k], v)
			}
		}
	}

	// Unknown database: 404.
	resp, _, _ = get(t, ts.URL+"/db/7/kpis")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown db = %d", resp.StatusCode)
	}
}

func TestExporterPublishShapes(t *testing.T) {
	feed := NewFeed(2, 3)
	// nil sample (wholly-dropped tick): all NaN, tick advances.
	if err := feed.Publish(4, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 2)
	tick, ok := feed.Read(1, [][]float64{dst})
	if !ok || tick != 4 || !math.IsNaN(dst[0]) || !math.IsNaN(dst[1]) {
		t.Fatalf("dropped tick read = %d %v %v", tick, ok, dst)
	}
	// Truncated rows lose trailing cells only.
	if err := feed.Publish(5, [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if tick, ok = feed.Read(2, [][]float64{dst}); !ok || tick != 5 || !math.IsNaN(dst[0]) {
		t.Fatalf("truncated row read = %d %v %v", tick, ok, dst)
	}
	if _, ok = feed.Read(0, [][]float64{dst}); !ok || dst[0] != 1 || !math.IsNaN(dst[1]) {
		t.Fatalf("partial KPI read = %v", dst)
	}
	// Oversized samples are pipeline bugs.
	if err := feed.Publish(6, [][]float64{{1, 2, 3, 4}}); err == nil {
		t.Fatal("oversized row accepted")
	}
	if err := feed.Publish(6, [][]float64{{1}, {1}, {1}}); err == nil {
		t.Fatal("excess KPI rows accepted")
	}
}

func TestExporterFaults(t *testing.T) {
	feed, exp, ts := newExporterServer(t, 2, 1)
	if err := feed.Publish(1, [][]float64{{10}, {20}}); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/db/0/kpis"

	// 5xx.
	if err := exp.SetFault(0, Fault{Mode: Fault5xx}); err != nil {
		t.Fatal(err)
	}
	resp, _, err := get(t, url)
	if err != nil || resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("5xx fault = %v, %v", resp, err)
	}

	// Garbage: 200 but unparseable.
	exp.SetFault(0, Fault{Mode: FaultGarbage})
	resp, body, err := get(t, url)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("garbage fault = %v, %v", resp, err)
	}
	var p Payload
	if err := ParseBody(body, &p, FormatJSON); err == nil {
		t.Fatal("garbage body parsed")
	}

	// Truncate: client sees a broken body.
	exp.SetFault(0, Fault{Mode: FaultTruncate})
	if _, body, err = get(t, url); err == nil {
		if err2 := ParseBody(body, &p, FormatJSON); err2 == nil {
			t.Fatal("truncated body parsed cleanly")
		}
	}

	// Drop: transport-level error, no response.
	exp.SetFault(0, Fault{Mode: FaultDrop})
	if resp, _, err := get(t, url); err == nil && resp.StatusCode == http.StatusOK {
		t.Fatal("dropped connection produced a 200")
	}

	// Flap: alternate success / 500.
	exp.SetFault(0, Fault{Mode: FaultFlap})
	codes := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		resp, _, err := get(t, url)
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, resp.StatusCode)
	}
	ok5xx, ok200 := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusInternalServerError:
			ok5xx++
		}
	}
	if ok200 != 2 || ok5xx != 2 {
		t.Fatalf("flap codes = %v", codes)
	}

	// Count-bounded fault clears itself.
	exp.SetFault(0, Fault{Mode: Fault5xx, Count: 2})
	for i := 0; i < 2; i++ {
		if resp, _, _ := get(t, url); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("bounded fault request %d = %d", i, resp.StatusCode)
		}
	}
	if resp, _, _ := get(t, url); resp.StatusCode != http.StatusOK {
		t.Fatalf("fault did not clear after count: %d", resp.StatusCode)
	}

	// Stale: tick frozen at install time even as the feed advances.
	exp.SetFault(0, Fault{Mode: FaultStale})
	_, body, _ = get(t, url)
	if err := ParseBody(body, &p, FormatJSON); err != nil || p.Tick != 1 {
		t.Fatalf("stale capture = %+v, %v", p, err)
	}
	feed.Publish(2, [][]float64{{11}, {21}})
	_, body, _ = get(t, url)
	if err := ParseBody(body, &p, FormatJSON); err != nil || p.Tick != 1 || p.Values[0] != 10 {
		t.Fatalf("stale fault served fresh data: %+v, %v", p, err)
	}
	exp.SetFault(0, Fault{})
	_, body, _ = get(t, url)
	if err := ParseBody(body, &p, FormatJSON); err != nil || p.Tick != 2 || p.Values[0] != 11 {
		t.Fatalf("cleared stale fault still frozen: %+v, %v", p, err)
	}

	if err := exp.SetFault(5, Fault{Mode: Fault5xx}); err == nil {
		t.Fatal("out-of-range fault target accepted")
	}
}

func TestParseFaultMode(t *testing.T) {
	for m := FaultNone; m <= FaultStale; m++ {
		got, err := ParseFaultMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseFaultMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseFaultMode("explode"); err == nil {
		t.Error("unknown mode accepted")
	}
	if !strings.Contains(FaultMode(99).String(), "99") {
		t.Error("out-of-range mode String")
	}
}

// The exporter answers GET and HEAD on its three paths, 405 with Allow on
// any other method, and 404 elsewhere.
func TestExporterRoutes(t *testing.T) {
	feed, _, ts := newExporterServer(t, 2, 2)
	if err := feed.Publish(0, [][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		code         int
	}{
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/kpis", http.StatusOK},
		{http.MethodHead, "/kpis", http.StatusOK},
		{http.MethodGet, "/db/1/kpis", http.StatusOK},
		{http.MethodHead, "/db/0/kpis", http.StatusOK},
		{http.MethodPost, "/kpis", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/db/0/kpis", http.StatusMethodNotAllowed},
		{http.MethodGet, "/db/x/kpis", http.StatusNotFound},
		{http.MethodGet, "/db/2/kpis", http.StatusNotFound},
		{http.MethodGet, "/kpis/", http.StatusNotFound},
		{http.MethodGet, "/metrics", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.code)
		}
		if tc.code == http.StatusMethodNotAllowed && resp.Header.Get("Allow") != "GET, HEAD" {
			t.Errorf("%s %s: Allow %q", tc.method, tc.path, resp.Header.Get("Allow"))
		}
	}
}
