package server

import (
	"net/http"
	"runtime/debug"
	"time"
)

// Recover wraps next so a handler panic produces a JSON 500 instead of
// killing the connection (and, under http.Server's default behaviour, the
// whole request goroutine's response). onPanic, when non-nil, observes the
// recovered value and stack. http.ErrAbortHandler is re-panicked — it is
// the sanctioned way to sever a connection, not a bug.
func Recover(next http.Handler, onPanic func(v interface{}, stack []byte)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			if onPanic != nil {
				onPanic(v, debug.Stack())
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"internal server error"}` + "\n"))
		}()
		next.ServeHTTP(w, r)
	})
}

// harden mounts the API for unattended serving: requests for the two
// verdict routes go straight to the verdict handler (envelope set for
// /api/fleet/verdicts), every other request to timed inside Timeout(d),
// and all of them run inside Recover. (A ServeMux in front would cost the
// timed routes an allocating second match on every request.)
//
// The verdict handler may skip Timeout because it cannot block: it reads
// a published verdictView and takes no lock that a push, a persister or
// I/O can hold, and it copies at most the history bound. A route leaves
// Timeout only under that rule; a handler that takes such a lock would
// otherwise hang on a stuck persister. Timeout never bounded a slow
// client: the http.Server's WriteTimeout does, for every route.
func harden(timed http.Handler, d time.Duration, verdicts func(w http.ResponseWriter, r *http.Request, envelope bool), onPanic func(v interface{}, stack []byte)) http.Handler {
	timed = Timeout(timed, d)
	return Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/fleet/verdicts":
			verdicts(w, r, true)
		case "/api/verdicts":
			verdicts(w, r, false)
		default:
			timed.ServeHTTP(w, r)
		}
	}), onPanic)
}

// Timeout bounds every request to d: a handler that has not finished in
// time gets a JSON 503 and its work is abandoned. d <= 0 disables the
// bound. Handler panics propagate through (http.TimeoutHandler re-panics
// them in the serving goroutine), so wrap Timeout inside Recover.
func Timeout(next http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	th := http.TimeoutHandler(next, d, `{"error":"request timed out"}`+"\n")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Pre-set the type for the timeout body; a handler that finishes in
		// time overwrites it when its headers are copied out.
		w.Header().Set("Content-Type", "application/json")
		th.ServeHTTP(w, r)
	})
}
