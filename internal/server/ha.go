// High-availability surface: role reporting and readiness probing. The
// server does not decide any of this itself — the daemon wires closures
// describing its current role (primary serving a live feed, or follower
// tailing a primary) and whether it is ready to serve (store open, feed
// live, replication caught up within the staleness budget). Promotion is
// the follower's own route (cmd/dbcatcherd), never the primary's. The
// probes are what a load balancer or
// orchestrator points at: /healthz answers "is the process alive",
// /readyz answers "should traffic go here right now", and the answer
// flips across a promotion without restarting the listener.
package server

import (
	"net/http"
	"sync"
)

// haState is the shared role/readiness wiring embedded in both the
// per-unit Server and the Fleet surface.
type haState struct {
	mu    sync.Mutex
	role  func() interface{}
	ready func() error
}

// setRole attaches a provider whose value becomes the "role" block of the
// status document (e.g. {"role":"follower","applied":123,...}).
func (h *haState) setRole(fn func() interface{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.role = fn
}

// setReady attaches the readiness check: nil error means ready. With no
// check attached the node reports ready whenever it is alive.
func (h *haState) setReady(fn func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ready = fn
}

// roleBlock returns the role document, or nil when no provider is wired.
func (h *haState) roleBlock() interface{} {
	h.mu.Lock()
	fn := h.role
	h.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// handleReadyz serves the readiness probe: 200 when the node should
// receive traffic, 503 with a reason when it should not (store closed,
// feed dead, follower stale). Liveness stays on /healthz.
func (h *haState) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	h.mu.Lock()
	check := h.ready
	h.mu.Unlock()
	if check != nil {
		if err := check(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "unready", "reason": err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// SetRole attaches the "role" block provider for /api/status.
func (s *Server) SetRole(fn func() interface{}) { s.ha.setRole(fn); s.Invalidate() }

// SetReady attaches the /readyz readiness check (nil error = ready).
func (s *Server) SetReady(fn func() error) { s.ha.setReady(fn) }

// SetRole attaches the "role" block provider for /api/fleet/status.
func (f *Fleet) SetRole(fn func() interface{}) { f.ha.setRole(fn) }

// SetReady attaches the /readyz readiness check (nil error = ready).
func (f *Fleet) SetReady(fn func() error) { f.ha.setReady(fn) }
