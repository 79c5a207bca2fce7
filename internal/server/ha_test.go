package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"dbcatcher/internal/kpi"
)

func TestReadyzDefaultAndWiredCheck(t *testing.T) {
	_, f, ts := newTestUnit(t)

	// No check wired: alive implies ready.
	var body map[string]string
	if resp := getJSON(t, ts.URL+"/readyz", &body); resp.StatusCode != 200 || body["status"] != "ready" {
		t.Fatalf("default readyz = %d %v", resp.StatusCode, body)
	}

	// A follower still catching up is unready, with the reason surfaced.
	ready := false
	f.SetReady(func() error {
		if !ready {
			return errors.New("follower 42 records behind primary")
		}
		return nil
	})
	resp := getJSON(t, ts.URL+"/readyz", &body)
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "unready" {
		t.Fatalf("unready readyz = %d %v", resp.StatusCode, body)
	}
	if !strings.Contains(body["reason"], "behind primary") {
		t.Fatalf("reason not surfaced: %v", body)
	}

	// Promotion flips the same probe to ready without restarting anything.
	ready = true
	if resp := getJSON(t, ts.URL+"/readyz", &body); resp.StatusCode != 200 || body["status"] != "ready" {
		t.Fatalf("post-promotion readyz = %d %v", resp.StatusCode, body)
	}
}

// Promotion is the follower's own route (cmd/dbcatcherd); neither primary
// surface serves it.
func TestPromoteEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	_, fts := newTestFleet(t)
	for _, url := range []string{ts.URL, fts.URL} {
		resp, err := http.Post(url+"/api/promote", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("primary promote = %d, want 404", resp.StatusCode)
		}
	}
}

func TestStatusETagCachingAndRoleBlock(t *testing.T) {
	s, f, ts := newTestUnit(t)
	role := "follower"
	f.SetRole(func() interface{} { return map[string]string{"role": role} })

	fetch := func(inm string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/status", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, b
	}

	resp1, body1 := fetch("")
	etag := resp1.Header.Get("ETag")
	if resp1.StatusCode != 200 || etag == "" {
		t.Fatalf("status = %d, etag %q", resp1.StatusCode, etag)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(body1, &doc); err != nil {
		t.Fatal(err)
	}
	roleBlock, ok := doc["role"].(map[string]interface{})
	if !ok || roleBlock["role"] != "follower" {
		t.Fatalf("role block = %v", doc["role"])
	}

	// Unchanged state: same ETag, and a conditional GET is a bodyless 304.
	resp2, body2 := fetch("")
	if resp2.Header.Get("ETag") != etag || string(body2) != string(body1) {
		t.Fatal("idle re-fetch rebuilt or changed the document")
	}
	resp3, body3 := fetch(etag)
	if resp3.StatusCode != http.StatusNotModified || len(body3) != 0 {
		t.Fatalf("conditional GET = %d with %d body bytes", resp3.StatusCode, len(body3))
	}

	// A state change (one ingested tick) invalidates the cache: new
	// document, new ETag, and the stale tag no longer matches.
	sample := make([][]float64, kpi.Count)
	for k := range sample {
		sample[k] = make([]float64, 5)
	}
	if _, err := s.Push(sample); err != nil {
		t.Fatal(err)
	}
	resp4, body4 := fetch(etag)
	if resp4.StatusCode != 200 {
		t.Fatalf("post-change conditional GET = %d, want fresh 200", resp4.StatusCode)
	}
	if resp4.Header.Get("ETag") == etag {
		t.Fatal("ETag did not change with the state")
	}
	if string(body4) == string(body1) {
		t.Fatal("document did not change with the state")
	}

	// Role flips (promotion) surface after an Invalidate.
	role = "primary"
	s.Invalidate()
	_, body5 := fetch("")
	if err := json.Unmarshal(body5, &doc); err != nil {
		t.Fatal(err)
	}
	if rb, _ := doc["role"].(map[string]interface{}); rb["role"] != "primary" {
		t.Fatalf("promoted role block = %v", doc["role"])
	}
}

func TestETagMatch(t *testing.T) {
	const etag = `"s17"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{`"s17"`, true},
		{`W/"s17"`, true},      // RFC 7232 §3.2: weak comparison
		{`"s16", "s17"`, true}, // comma-separated list
		{` "s16" , W/"s17" `, true},
		{"*", true},     // any current representation
		{`"s1"`, false}, // must not substring-match "s17"
		{`"s170"`, false},
		{`"s16", "s18"`, false},
	}
	for _, c := range cases {
		if got := etagMatch(c.header, etag); got != c.want {
			t.Fatalf("etagMatch(%q, %q) = %v, want %v", c.header, etag, got, c.want)
		}
	}
}

func TestStatusIfNoneMatchForms(t *testing.T) {
	s, ts := newTestServer(t)
	_ = s
	fetch := func(inm string) int {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/status", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	first, err := http.Get(ts.URL + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	etag := first.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /api/status")
	}
	if code := fetch("*"); code != http.StatusNotModified {
		t.Fatalf("If-None-Match: * = %d, want 304", code)
	}
	if code := fetch("W/" + etag); code != http.StatusNotModified {
		t.Fatalf("weak tag = %d, want 304", code)
	}
	if code := fetch(`"bogus", ` + etag); code != http.StatusNotModified {
		t.Fatalf("tag in list = %d, want 304", code)
	}
	if code := fetch(`"bogus"`); code != http.StatusOK {
		t.Fatalf("non-matching tag = %d, want 200", code)
	}
}

func TestFleetReadyzAndRole(t *testing.T) {
	f, ts := newTestFleet(t)
	var body map[string]string
	if resp := getJSON(t, ts.URL+"/readyz", &body); resp.StatusCode != 200 {
		t.Fatalf("fleet readyz = %d", resp.StatusCode)
	}
	f.SetReady(func() error { return errors.New("store closed") })
	if resp := getJSON(t, ts.URL+"/readyz", &body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fleet unready readyz = %d", resp.StatusCode)
	}
	f.SetRole(func() interface{} { return map[string]string{"role": "primary"} })
	var doc map[string]interface{}
	if resp := getJSON(t, ts.URL+"/api/fleet/status", &doc); resp.StatusCode != 200 {
		t.Fatalf("fleet status = %d", resp.StatusCode)
	}
	if rb, _ := doc["role"].(map[string]interface{}); rb["role"] != "primary" {
		t.Fatalf("fleet role block = %v", doc["role"])
	}
}
