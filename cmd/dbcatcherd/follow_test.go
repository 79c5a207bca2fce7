package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dbcatcher/internal/replicate"
	"dbcatcher/internal/store"
)

// haPrimary opens a primary store with a few durable records and serves
// its replication surface.
func haPrimary(t *testing.T, epoch uint64, records int) (*store.Store, *httptest.Server) {
	t.Helper()
	st, rec, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.AdoptEpoch(rec.LatestEpoch()+epoch, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := st.AppendFeedback(store.FeedbackRecord{Start: i}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(replicate.NewServer(st).Handler())
	return st, srv
}

func followerTailer(t *testing.T, primary, dir string) *replicate.Tailer {
	t.Helper()
	tl, err := replicate.NewTailer(replicate.Config{
		Primary: primary, Dir: dir,
		Poll: 10 * time.Millisecond, StalenessBudget: 150 * time.Millisecond,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestFollowUntilPromotionManual(t *testing.T) {
	_, srv := haPrimary(t, 1, 5)
	defer srv.Close()
	dir := t.TempDir()
	tl := followerTailer(t, srv.URL, dir)

	manual := make(chan struct{}, 1)
	decided := make(chan bool, 1)
	go func() { decided <- followUntilPromotion(context.Background(), tl, manual, 0) }()

	deadline := time.Now().Add(5 * time.Second)
	for tl.Status().Applied < 6 { // 1 epoch record + 5 counters
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", tl.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	manual <- struct{}{}
	select {
	case promoted := <-decided:
		if !promoted {
			t.Fatal("manual trigger did not decide promotion")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("followUntilPromotion did not return after manual trigger")
	}

	// The takeover adopts the next epoch durably in the mirror.
	epoch, err := promoteMirror(dir, store.Options{Fsync: store.FsyncAlways}, srv.URL, tl.Status().Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	_, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.LatestEpoch(); got != 2 {
		t.Fatalf("durable epoch after promotion = %d, want 2", got)
	}
}

func TestFollowUntilPromotionAutoOnSilence(t *testing.T) {
	_, srv := haPrimary(t, 1, 3)
	dir := t.TempDir()
	tl := followerTailer(t, srv.URL, dir)

	manual := make(chan struct{}, 1)
	decided := make(chan bool, 1)
	go func() { decided <- followUntilPromotion(context.Background(), tl, manual, 300*time.Millisecond) }()

	deadline := time.Now().Add(5 * time.Second)
	for tl.Status().Applied < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", tl.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Kill the primary: the missed-heartbeat budget fills and the loop
	// decides to promote on its own.
	srv.Close()
	select {
	case promoted := <-decided:
		if !promoted {
			t.Fatal("silence did not decide promotion")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("auto-promotion never fired")
	}
}

func TestFollowUntilPromotionCleanShutdown(t *testing.T) {
	_, srv := haPrimary(t, 1, 2)
	defer srv.Close()
	tl := followerTailer(t, srv.URL, t.TempDir())

	ctx, cancel := context.WithCancel(context.Background())
	manual := make(chan struct{}, 1)
	decided := make(chan bool, 1)
	go func() { decided <- followUntilPromotion(ctx, tl, manual, 0) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case promoted := <-decided:
		if promoted {
			t.Fatal("shutdown must not promote")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("followUntilPromotion did not exit on cancel")
	}
}

func TestPromoteCheckIntervalClamp(t *testing.T) {
	cases := []struct {
		after time.Duration
		want  time.Duration
	}{
		{0, 200 * time.Millisecond},                // manual-only: default cadence
		{10 * time.Second, 200 * time.Millisecond}, // long budgets stay at default
		{100 * time.Millisecond, 25 * time.Millisecond},
		{3, time.Millisecond}, // 3ns/4 truncates to 0: clamp, don't panic NewTicker
		{1, time.Millisecond},
	}
	for _, c := range cases {
		if got := promoteCheckInterval(c.after); got != c.want {
			t.Fatalf("promoteCheckInterval(%v) = %v, want %v", c.after, got, c.want)
		}
	}
}

func TestAutoPromotionRequiresContact(t *testing.T) {
	// A follower that has never reached any primary must not auto-promote,
	// no matter how long it waits: its mirror could be empty.
	tl := followerTailer(t, "http://127.0.0.1:1", t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	manual := make(chan struct{}, 1)
	if promoted := followUntilPromotion(ctx, tl, manual, 100*time.Millisecond); promoted {
		t.Fatal("promoted with zero primary contact")
	}
}

func TestFollowerProbeSurface(t *testing.T) {
	_, srv := haPrimary(t, 1, 3)
	defer srv.Close()
	const budget = 500 * time.Millisecond
	tl, err := replicate.NewTailer(replicate.Config{
		Primary: srv.URL, Dir: t.TempDir(),
		Poll: 10 * time.Millisecond, StalenessBudget: budget,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	manual := make(chan struct{}, 1)
	probes := httptest.NewServer(followerHandler(tl, srv.URL, manual))
	defer probes.Close()
	call := func(method, path string) (int, map[string]interface{}) {
		t.Helper()
		req, err := http.NewRequest(method, probes.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]interface{}
		_ = json.NewDecoder(resp.Body).Decode(&body) // 405 answers in plain text
		return resp.StatusCode, body
	}

	if code, body := call(http.MethodGet, "/readyz"); code != http.StatusServiceUnavailable || body["reason"] != errNeverContacted.Error() {
		t.Fatalf("readyz before contact = %d %v", code, body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !tl.Status().CaughtUp {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", tl.Status())
		}
		if err := tl.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if code, body := call(http.MethodGet, "/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz once caught up = %d %v", code, body)
	}
	code, body := call(http.MethodGet, "/api/status")
	role, _ := body["role"].(map[string]interface{})
	if code != http.StatusOK || role["role"] != "follower" || role["primary"] != srv.URL || role["caughtUp"] != true {
		t.Fatalf("status = %d %v", code, body)
	}

	for !tl.Status().Stale {
		if time.Now().After(deadline.Add(budget)) {
			t.Fatalf("follower never went stale: %+v", tl.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, body := call(http.MethodGet, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(fmt.Sprint(body["reason"]), "replication stale") {
		t.Fatalf("readyz past the staleness budget = %d %v", code, body)
	}

	if code, body := call(http.MethodPost, "/api/promote"); code != http.StatusAccepted {
		t.Fatalf("first promote = %d %v", code, body)
	}
	select {
	case <-manual:
	default:
		t.Fatal("promote did not signal the follower loop")
	}
	if code, body := call(http.MethodPost, "/api/promote"); code != http.StatusConflict {
		t.Fatalf("repeated promote = %d %v", code, body)
	}
	if code, _ := call(http.MethodGet, "/api/promote"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET promote = %d", code)
	}
}
