// Follower role: with -follow the daemon is a warm standby. It does not
// simulate, scrape, or judge anything; it tails the primary's WAL and
// snapshot over HTTP into the local -data-dir, byte-identical, and serves
// the daemon's surface over no units: the probes and the role block.
// Promotion — manual POST /api/promote, or automatic after -promote-after
// without primary contact — adopts the next fencing epoch durably and
// returns control to main, which falls through into the normal startup
// path: the recovered mirror rehydrates the detectors (one unit at the
// mirrored snapshot) and the feed resumes, exactly like a restart.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dbcatcher/internal/replicate"
	"dbcatcher/internal/server"
	"dbcatcher/internal/store"
)

// errNeverContacted blocks auto-promotion of a follower that has never
// reached its primary: its mirror may be empty or arbitrarily old, and
// promoting it would resurrect a stale epoch instead of continuing one.
var errNeverContacted = errors.New("no primary contact yet")

// followerHandler is the follower's HTTP surface: the daemon's surface
// over no units, whose /readyz is ready only once caught up within the
// staleness budget and whose /api/status carries the follower's role
// block, and beside it POST /api/promote, which requests promotion on
// manual once and answers 409 to every later request.
func followerHandler(tl *replicate.Tailer, primary string, manual chan<- struct{}) http.Handler {
	api := server.NewFleet(nil)
	api.SetReady(func() error {
		s := tl.Status()
		switch {
		case s.LastContact.IsZero():
			return errNeverContacted
		case s.Stale:
			return fmt.Errorf("replication stale: last contact %s ago (budget %s)",
				time.Since(s.LastContact).Round(time.Millisecond), tl.StalenessBudget())
		case !s.CaughtUp:
			return fmt.Errorf("replaying: applied %d of %d", s.Applied, s.PrimaryLastSeq)
		}
		return nil
	})
	api.SetRole(func() interface{} { return followerRoleBlock(tl, primary) })
	var promoting atomic.Bool
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	mux.HandleFunc("/api/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if !promoting.CompareAndSwap(false, true) {
			w.WriteHeader(http.StatusConflict)
			_, _ = io.WriteString(w, `{"error":"promotion already in progress"}`+"\n")
			return
		}
		select {
		case manual <- struct{}{}:
		default:
		}
		w.WriteHeader(http.StatusAccepted)
		_, _ = io.WriteString(w, `{"status":"promotion requested"}`+"\n")
	})
	return mux
}

// runFollower tails the -follow primary into -data-dir, serving the probe
// surface on -addr, until promotion or until ctx is done. It returns true
// when the node was promoted (the mirror now durably owns the next epoch;
// the caller proceeds into normal primary startup) and false on a clean
// SIGTERM/SIGINT exit as a standby.
func runFollower(ctx context.Context, cfg *fleetConfig) (bool, error) {
	tl, err := replicate.NewTailer(replicate.Config{
		Primary:         cfg.follow,
		Dir:             cfg.dataDir,
		Poll:            cfg.followPoll,
		StalenessBudget: cfg.staleBudget,
		Seed:            cfg.seed,
	})
	if err != nil {
		return false, fmt.Errorf("follower: %v", err)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return false, fmt.Errorf("follower: %v", err)
	}
	manual := make(chan struct{}, 1)
	httpSrv := &http.Server{
		Handler:           followerHandler(tl, cfg.follow, manual),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			log.Printf("follower probes: %v", err)
		}
	}()
	log.Printf("follower probes listening on %s (tailing %s)", ln.Addr(), cfg.follow)

	promoted := followUntilPromotion(ctx, tl, manual, cfg.promoteAfter)

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("follower shutdown: %v", err)
	}
	cancelDrain()
	if !promoted {
		log.Printf("follower draining: applied %d records, exiting as standby", tl.Status().Applied)
		return false, nil
	}

	epoch, err := promoteMirror(cfg.dataDir, store.Options{Fsync: cfg.fsync}, cfg.follow, tl.Status().Epoch)
	if err != nil {
		return false, fmt.Errorf("promotion failed: %v", err)
	}
	log.Printf("promoted: mirror %s now owns epoch %d", cfg.dataDir, epoch)
	return true, nil
}

// followUntilPromotion runs the tail loop until a promotion trigger fires
// — a manual request, or (with promoteAfter > 0) the primary silent past
// the threshold after having been reachable at least once. Returns false
// when ctx is cancelled first (clean standby shutdown).
func followUntilPromotion(ctx context.Context, tl *replicate.Tailer, manual <-chan struct{}, promoteAfter time.Duration) bool {
	runCtx, cancel := context.WithCancel(ctx)
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		tl.Run(runCtx)
	}()
	stopTail := func() {
		cancel()
		<-runDone
	}

	ticker := time.NewTicker(promoteCheckInterval(promoteAfter))
	defer ticker.Stop()
	warned := false
	for {
		select {
		case <-ctx.Done():
			stopTail()
			return false
		case <-manual:
			log.Printf("manual promotion requested")
			stopTail()
			return true
		case <-ticker.C:
			if promoteAfter <= 0 {
				continue
			}
			s := tl.Status()
			if s.LastContact.IsZero() {
				continue // never reached the primary; see errNeverContacted
			}
			silent := time.Since(s.LastContact)
			if silent <= promoteAfter {
				warned = false
				continue
			}
			if !warned {
				log.Printf("primary silent for %s (budget %s, %d consecutive failures)",
					silent.Round(time.Millisecond), promoteAfter, s.ConsecutiveFailures)
				warned = true
			}
			log.Printf("auto-promotion: missed-heartbeat budget exhausted")
			stopTail()
			return true
		}
	}
}

// promoteCheckInterval derives the auto-promotion poll cadence from the
// configured silence budget: a quarter of the budget, clamped between
// 1ms (time.NewTicker panics on a zero interval, which a sub-4ns
// -promote-after would otherwise truncate to) and 200ms.
func promoteCheckInterval(promoteAfter time.Duration) time.Duration {
	check := 200 * time.Millisecond
	if promoteAfter > 0 && promoteAfter/4 < check {
		check = promoteAfter / 4
		if check < time.Millisecond {
			check = time.Millisecond
		}
	}
	return check
}

// promoteMirror finalizes the takeover: adopt the next epoch durably in
// the mirror — strictly above both the mirrored log's epoch and the
// highest epoch the tailer ever saw the primary advertise — best-effort
// fence the old primary, and release the store so the normal startup
// path can reopen it. observed is the tailer's highest observed epoch.
// The single fence attempt here is only the fast path: the promoted
// daemon's epoch guard keeps retrying the contact in the background, so
// an old primary that survives a partition is still demoted on first
// reconnect instead of running as a second primary forever.
func promoteMirror(dir string, opts store.Options, primary string, observed uint64) (uint64, error) {
	st, _, epoch, err := replicate.Promote(dir, opts, observed)
	if err != nil {
		return 0, err
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	fenceCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := replicate.FenceOldPrimary(fenceCtx, nil, primary, epoch); err != nil {
		// Expected: promotion usually happens because the primary is gone.
		// A rejoining node is fenced by the epoch in the replicated log,
		// and the takeover's epoch guard retries this contact until the
		// demotion sticks.
		log.Printf("old primary not fenced yet (%v); the epoch guard keeps retrying", err)
	} else {
		log.Printf("old primary fenced at epoch %d", epoch)
	}
	return epoch, nil
}

// followerRoleBlock is the "role" document served while following.
func followerRoleBlock(tl *replicate.Tailer, primary string) map[string]interface{} {
	s := tl.Status()
	block := map[string]interface{}{
		"role":                "follower",
		"primary":             primary,
		"epoch":               s.Epoch,
		"applied":             s.Applied,
		"primaryLastSeq":      s.PrimaryLastSeq,
		"caughtUp":            s.CaughtUp,
		"stale":               s.Stale,
		"bytesBehind":         s.BytesBehind,
		"segmentsBehind":      s.SegmentsBehind,
		"consecutiveFailures": s.ConsecutiveFailures,
		"snapshotRestarts":    s.SnapshotRestarts,
	}
	if !s.LastContact.IsZero() {
		block["lastContactMsAgo"] = time.Since(s.LastContact).Milliseconds()
	}
	if s.LastError != "" {
		block["lastError"] = s.LastError
	}
	return block
}
