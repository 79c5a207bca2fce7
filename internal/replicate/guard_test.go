package replicate

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"dbcatcher/internal/store"
)

// listenAt rebinds the host:port of a previously closed test server URL.
func listenAt(rawURL string) (net.Listener, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	return net.Listen("tcp", u.Host)
}

// epochStore opens a store and durably adopts the given epoch (0 = none).
func epochStore(t *testing.T, epoch uint64) *store.Store {
	t.Helper()
	st, _, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if epoch > 0 {
		if err := st.AdoptEpoch(epoch, 0); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func testGuard(st *store.Store, peer string) *Guard {
	return NewGuard(st, GuardConfig{
		Peer:   peer,
		Client: &http.Client{Timeout: 300 * time.Millisecond},
		Seed:   7,
	})
}

// TestPromoteAdoptsObservedEpoch pins the strict-monotonicity rule: a
// takeover whose tailing lagged behind the primary's last epoch bump must
// still land strictly above it. The mirror's own log says epoch 1, but
// the tailer observed the primary advertise epoch 5 — the promoted node
// adopts 6, never 2.
func TestPromoteAdoptsObservedEpoch(t *testing.T) {
	src := epochStore(t, 1)
	srv := httptest.NewServer(NewServer(src).Handler())
	defer srv.Close()
	dir := t.TempDir()
	tl, err := NewTailer(fastCfg(srv.URL, dir))
	if err != nil {
		t.Fatal(err)
	}
	stepUntilCaughtUp(t, tl, 3)

	st, _, epoch, err := Promote(dir, store.Options{Fsync: store.FsyncAlways}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if epoch != 6 {
		t.Fatalf("promoted epoch = %d, want 6 (observed 5 beats mirror's 1)", epoch)
	}
	// And the adopted epoch is durable: a reopen recovers it.
	_, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := rec.LatestEpoch(); e != 6 {
		t.Fatalf("durable epoch after promotion = %d, want 6", e)
	}
}

// TestGuardRefencesStalePeer is the partition-both-alive case the one-shot
// fence at promotion time cannot cover: the promoted node (epoch 2) keeps
// probing the old primary (epoch 1) and fences it on first contact, so a
// zombie that survived the partition stops accepting durable writes.
func TestGuardRefencesStalePeer(t *testing.T) {
	old := epochStore(t, 1)
	oldSrv := httptest.NewServer(NewServer(old).Handler())
	defer oldSrv.Close()
	promoted := epochStore(t, 2)

	g := testGuard(promoted, oldSrv.URL)
	done, err := g.Step(context.Background())
	if err != nil || done {
		t.Fatalf("guard step: done=%v err=%v", done, err)
	}
	if _, err := old.AppendFeedback(store.FeedbackRecord{}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("stale peer write after guard contact: %v, want ErrFenced", err)
	}
	st := g.Status()
	if st.FencesSent != 1 || !st.PeerFenced || st.PeerEpoch != 1 {
		t.Fatalf("guard status %+v", st)
	}

	// The next pass sees the peer already fenced and does not re-post.
	if _, err := g.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := g.Status(); st.FencesSent != 1 {
		t.Fatalf("re-fenced an already-fenced peer: %+v", st)
	}
	// The promoted node itself stays writable throughout.
	if _, err := promoted.AppendFeedback(store.FeedbackRecord{}); err != nil {
		t.Fatalf("promoted node wrongly affected: %v", err)
	}
}

// TestGuardSelfFencesOnNewerPeer is the rebooted-zombie direction: an old
// primary that came back (e.g. under a process supervisor) probes its
// peer, finds a strictly newer epoch, and demotes itself rather than
// forking durable history.
func TestGuardSelfFencesOnNewerPeer(t *testing.T) {
	newPrimary := epochStore(t, 3)
	srv := httptest.NewServer(NewServer(newPrimary).Handler())
	defer srv.Close()
	zombie := epochStore(t, 1)

	fencedAt := uint64(0)
	g := NewGuard(zombie, GuardConfig{
		Peer:        srv.URL,
		Client:      &http.Client{Timeout: 300 * time.Millisecond},
		OnSelfFence: func(e uint64) { fencedAt = e },
	})
	done, err := g.Step(context.Background())
	if err != nil || !done {
		t.Fatalf("guard step: done=%v err=%v", done, err)
	}
	if fencedAt != 3 {
		t.Fatalf("OnSelfFence epoch = %d, want 3", fencedAt)
	}
	if _, err := zombie.AppendFeedback(store.FeedbackRecord{}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("zombie write after self-fence: %v, want ErrFenced", err)
	}
	if st := g.Status(); !st.SelfFenced || st.PeerEpoch != 3 {
		t.Fatalf("guard status %+v", st)
	}
	// The legitimate primary is untouched.
	if _, err := newPrimary.AppendFeedback(store.FeedbackRecord{}); err != nil {
		t.Fatal(err)
	}
}

// TestGuardSelfFencesOnEqualEpoch pins the double-boot fork case: two
// primaries at the same epoch is already a fork, and the only safe
// response is to stop writing — on both sides if both run guards.
func TestGuardSelfFencesOnEqualEpoch(t *testing.T) {
	a := epochStore(t, 2)
	b := epochStore(t, 2)
	srvB := httptest.NewServer(NewServer(b).Handler())
	defer srvB.Close()

	g := testGuard(a, srvB.URL)
	done, err := g.Step(context.Background())
	if err != nil || !done {
		t.Fatalf("guard step: done=%v err=%v", done, err)
	}
	if _, err := a.AppendFeedback(store.FeedbackRecord{}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("equal-epoch write: %v, want ErrFenced", err)
	}
}

// TestGuardRunLoopFencesPeerThatComesBack drives the background loop: the
// peer is down at first (probe errors absorbed), then appears at a stale
// epoch and is fenced.
func TestGuardRunLoopFencesPeerThatComesBack(t *testing.T) {
	old := epochStore(t, 1)
	handler := NewServer(old).Handler()
	srv := httptest.NewServer(handler)
	srv.Close() // down from the start: probes fail

	promoted := epochStore(t, 2)
	g := testGuard(promoted, srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() { g.Run(ctx); close(loopDone) }()

	time.Sleep(30 * time.Millisecond)
	if st := g.Status(); st.Probes != 0 || st.LastError == "" {
		t.Fatalf("guard should only have failures while the peer is down: %+v", st)
	}

	// The old primary comes back on the same address, still at epoch 1.
	ln, err := listenAt(srv.URL)
	if err != nil {
		t.Skipf("cannot rebind test address: %v", err)
	}
	back := &http.Server{Handler: handler}
	go back.Serve(ln)
	defer back.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := old.AppendFeedback(store.FeedbackRecord{}); errors.Is(err, store.ErrFenced) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined stale peer never fenced: %+v", g.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case <-loopDone:
	case <-time.After(2 * time.Second):
		t.Fatal("guard loop did not exit on cancel")
	}
}

// TestVerifyBootEpoch pins the boot-time refusal: a peer already serving
// an equal-or-newer epoch blocks the boot; a stale, absent, or
// non-replicating peer does not.
func TestVerifyBootEpoch(t *testing.T) {
	peerStore := epochStore(t, 2)
	srv := httptest.NewServer(NewServer(peerStore).Handler())
	defer srv.Close()
	ctx := context.Background()

	// Equal and lower intended epochs are refused: our history is stale.
	for _, next := range []uint64{1, 2} {
		if err := VerifyBootEpoch(ctx, nil, srv.URL, next); err == nil {
			t.Fatalf("boot at epoch %d allowed against a peer at 2", next)
		}
	}
	// Strictly above the peer: boot proceeds.
	if err := VerifyBootEpoch(ctx, nil, srv.URL, 3); err != nil {
		t.Fatalf("boot at epoch 3 blocked: %v", err)
	}
	// A peer not serving replication (a follower's probe mux) is no
	// evidence either way.
	probes := httptest.NewServer(http.NotFoundHandler())
	defer probes.Close()
	if err := VerifyBootEpoch(ctx, nil, probes.URL, 1); err != nil {
		t.Fatalf("non-replicating peer blocked the boot: %v", err)
	}
	// An unreachable peer must not block the boot (availability), only
	// the serving-time guard can judge it later.
	if err := VerifyBootEpoch(ctx, nil, "http://127.0.0.1:1", 1); err != nil {
		t.Fatalf("unreachable peer blocked the boot: %v", err)
	}
}
