package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecoverTurnsPanicIntoJSON500(t *testing.T) {
	var gotVal interface{}
	var gotStack []byte
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}), func(v interface{}, stack []byte) { gotVal, gotStack = v, stack })

	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "internal server error") {
		t.Fatalf("body = %q", body)
	}
	if gotVal != "kaboom" || len(gotStack) == 0 {
		t.Fatalf("onPanic got (%v, %d bytes of stack)", gotVal, len(gotStack))
	}
}

func TestRecoverRepanicsErrAbortHandler(t *testing.T) {
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}), func(v interface{}, stack []byte) {
		t.Error("onPanic must not observe ErrAbortHandler")
	})
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler was swallowed")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}

func TestTimeoutBoundsSlowHandlers(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	ts := httptest.NewServer(Timeout(slow, 30*time.Millisecond))
	defer ts.Close()
	start := time.Now()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout middleware did not bound the request")
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Fatalf("body = %q", body)
	}
}

func TestTimeoutPassesFastHandlersThrough(t *testing.T) {
	fast := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Write([]byte("ok"))
	})
	ts := httptest.NewServer(Timeout(fast, time.Second))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok" {
		t.Fatalf("fast handler = %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain" {
		t.Fatalf("fast handler content type = %q (timeout pre-set must be overwritten)", ct)
	}
	// Disabled bound is the identity.
	if Timeout(fast, 0).(http.HandlerFunc) == nil {
		t.Fatal("zero timeout must return the handler unchanged")
	}
}

func TestStatusServerAndScrapeBlocks(t *testing.T) {
	_, f, ts := newTestUnit(t)
	f.SetScrape(func() interface{} {
		return map[string]int{"rounds": 7}
	})
	f.recordPanic("test-panic", []byte("stack"))
	f.recordPanic("test-panic-2", []byte("stack"))

	var body map[string]interface{}
	if resp := getJSON(t, ts.URL+"/api/status", &body); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	srv, ok := body["server"].(map[string]interface{})
	if !ok {
		t.Fatalf("no server block: %v", body)
	}
	if srv["panics"].(float64) != 2 {
		t.Fatalf("panics = %v", srv["panics"])
	}
	if srv["requestTimeoutMs"].(float64) != float64(DefaultRequestTimeout.Milliseconds()) {
		t.Fatalf("requestTimeoutMs = %v", srv["requestTimeoutMs"])
	}
	scr, ok := body["scrape"].(map[string]interface{})
	if !ok || scr["rounds"].(float64) != 7 {
		t.Fatalf("scrape block = %v", body["scrape"])
	}
}

// The assembled Handler survives a panicking status provider end to end:
// the request comes back as a JSON 500, the counter increments, and the
// next request is served normally.
func TestHandlerRecoversPanickingProvider(t *testing.T) {
	_, f, ts := newTestUnit(t)
	poisoned := true
	f.SetScrape(func() interface{} {
		if poisoned {
			panic("poisoned provider")
		}
		return map[string]int{"rounds": 1}
	})
	resp, err := http.Get(ts.URL + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned status = %d", resp.StatusCode)
	}
	if f.panics.Load() != 1 {
		t.Fatalf("panics = %d", f.panics.Load())
	}
	poisoned = false
	var body map[string]interface{}
	if resp := getJSON(t, ts.URL+"/api/status", &body); resp.StatusCode != 200 {
		t.Fatalf("recovered status = %d", resp.StatusCode)
	}
	if body["scrape"] == nil {
		t.Fatal("scrape block missing after recovery")
	}
}
