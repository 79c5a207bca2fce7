package replicate

import (
	"context"
	"net/http"
	"sync"
	"time"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/store"
)

// GuardConfig tunes an epoch Guard. Zero values get safe defaults.
type GuardConfig struct {
	// Peer is the counterpart node's base URL (the standby's address on a
	// primary; the demoted primary's address on a freshly promoted one).
	Peer string
	// Client issues the probes (default: 2s-timeout client).
	Client *http.Client
	// Seed keys the probe jitter.
	Seed uint64
	// OnSelfFence fires once when the guard demotes the local store after
	// observing the peer at an equal-or-higher epoch. The daemon uses it
	// to flip readiness and log; the store is already fenced when it runs.
	OnSelfFence func(peerEpoch uint64)
}

func (c GuardConfig) withDefaults() GuardConfig {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Second}
	}
	return c
}

// guardInterval is the probe cadence, jittered into [interval/2,
// interval).
const guardInterval = 2 * time.Second

// GuardStatus is a point-in-time view of the guard for status reporting.
type GuardStatus struct {
	// Probes counts completed peer manifest fetches (successful contacts).
	Probes uint64
	// PeerEpoch is the epoch the peer advertised at last contact.
	PeerEpoch uint64
	// PeerFenced reports the peer's fenced flag at last contact.
	PeerFenced bool
	// FencesSent counts fence posts delivered to a stale peer.
	FencesSent uint64
	// SelfFenced reports the guard demoted the local store.
	SelfFenced bool
	// LastError is the most recent probe failure, empty after a success.
	LastError string
}

// Guard is the serving-time half of epoch fencing. A one-shot fence post
// at promotion time is not enough: across a partition both nodes can stay
// alive as primaries, the old one never observing the new epoch. The
// guard closes that gap from both directions — every serving primary with
// a known peer probes the peer's manifest on an interval, and
//
//   - a peer at a *lower* epoch is a zombie primary: the guard posts a
//     fence to it, retrying every interval until the peer reports fenced
//     or stops serving replication;
//   - a peer at an *equal or higher* epoch proves our own history is the
//     stale fork: the guard fences the local store (writes fail with
//     ErrFenced from that point on) and reports via OnSelfFence.
//
// Equal epochs can only arise from a partitioned double boot; both sides
// self-fence, which is safe (no fork grows) and loud (both /readyz probes
// flip), leaving the operator to pick the survivor.
type Guard struct {
	cfg GuardConfig
	st  *store.Store
	rng *mathx.RNG

	mu     sync.Mutex
	status GuardStatus
}

// NewGuard wraps an open primary store with an epoch guard against peer.
func NewGuard(st *store.Store, cfg GuardConfig) *Guard {
	return &Guard{cfg: cfg.withDefaults(), st: st, rng: mathx.NewRNG(cfg.Seed).Split(0x9a2d)}
}

// Status returns a copy of the guard's current state.
func (g *Guard) Status() GuardStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.status
}

// Step performs one guard pass: probe the peer, self-fence or re-fence as
// the epoch comparison demands. done reports the guard has nothing left
// to do (the local store was fenced — by us or anyone else).
func (g *Guard) Step(ctx context.Context) (done bool, err error) {
	own, fenced := g.st.Epoch()
	if fenced {
		return true, nil
	}
	peerEpoch, peerFenced, serving, err := PeerEpoch(ctx, g.cfg.Client, g.cfg.Peer)
	if err != nil {
		g.mu.Lock()
		g.status.LastError = err.Error()
		g.mu.Unlock()
		return false, err
	}
	g.mu.Lock()
	g.status.Probes++
	g.status.LastError = ""
	if serving {
		g.status.PeerEpoch = peerEpoch
		g.status.PeerFenced = peerFenced
	}
	g.mu.Unlock()
	if !serving {
		// The peer is a follower (or replication is off there): there is
		// no competing history to compare against.
		return false, nil
	}
	if peerEpoch >= own {
		// Our log is the stale fork (or an equal-epoch double boot).
		// Demote ourselves before another durable write lands.
		if err := g.st.SelfFence(peerEpoch); err != nil {
			return false, err
		}
		g.mu.Lock()
		g.status.SelfFenced = true
		g.mu.Unlock()
		if g.cfg.OnSelfFence != nil {
			g.cfg.OnSelfFence(peerEpoch)
		}
		return true, nil
	}
	if peerFenced {
		// The demotion already stuck; keep watching in case the peer
		// reboots un-fenced.
		return false, nil
	}
	// The peer is a zombie at an older epoch: (re-)fence it until the
	// demotion sticks. A conflict answer means it raced past us — the
	// next probe re-reads its epoch and self-fences if so.
	if err := FenceOldPrimary(ctx, g.cfg.Client, g.cfg.Peer, own); err != nil {
		g.mu.Lock()
		g.status.LastError = err.Error()
		g.mu.Unlock()
		return false, err
	}
	g.mu.Lock()
	g.status.FencesSent++
	g.status.PeerFenced = true
	g.mu.Unlock()
	return false, nil
}

// Run loops Step every guardInterval (jittered) until ctx is done
// or the guard has nothing left to watch. Probe failures are absorbed
// into Status — an unreachable peer is the normal case after a clean
// failover, and the loop keeps watching for it to come back.
func (g *Guard) Run(ctx context.Context) {
	for {
		done, _ := g.Step(ctx)
		if done {
			return
		}
		half := guardInterval / 2
		d := half + time.Duration(g.rng.Float64()*float64(half))
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
	}
}
