package replicate

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/store"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

const (
	haTicks    = 400
	haDBs      = 5
	haKillTick = 257
	haFbCap    = 512
)

// haSamples mirrors the store e2e workload: a simulated unit with an
// injected stall and a few wholly-missed collection ticks.
func haSamples(t *testing.T) [][][]float64 {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "ha", Ticks: haTicks, Seed: 1207, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := anomaly.Inject(u, []anomaly.Event{
		{Type: anomaly.Stall, DB: 2, Start: 150, Length: 40, Magnitude: 0.9},
	}, mathx.NewRNG(7)); err != nil {
		t.Fatal(err)
	}
	samples := make([][][]float64, haTicks)
	for tick := 0; tick < haTicks; tick++ {
		if tick%89 == 17 {
			continue
		}
		s := make([][]float64, kpi.Count)
		for k := range s {
			s[k] = make([]float64, haDBs)
			for d := 0; d < haDBs; d++ {
				s[k][d] = u.Series.Data[k][d].At(tick)
			}
		}
		samples[tick] = s
	}
	return samples
}

func haOnline(t *testing.T) *monitor.Online {
	t.Helper()
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Flex:       window.FlexConfig{Initial: 10, Max: 30},
		Workers:    1,
	}, kpi.Count, haDBs)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// haDrive pushes samples[from:to) through o with the scripted operator
// activity: a threshold retune after the 5th published verdict and DBA
// marks on every verdict past markAbove.
func haDrive(t *testing.T, o *monitor.Online, fb *feedback.Store, samples [][][]float64, from, to int, published *int, markAbove int) []*monitor.Verdict {
	t.Helper()
	var out []*monitor.Verdict
	for tick := from; tick < to; tick++ {
		v, err := o.Push(samples[tick])
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if v == nil {
			continue
		}
		out = append(out, v)
		*published++
		if *published == 5 {
			th := o.Thresholds()
			th.Theta = 0.30
			th.Alpha[1] = 0.70
			if err := o.SetThresholds(th); err != nil {
				t.Fatal(err)
			}
		}
		if fb != nil && v.Tick > markAbove {
			fb.Add(feedback.Record{
				Start: v.Start, Size: v.Size,
				Predicted: v.Abnormal,
				Actual:    v.Start%3 == 0,
			})
		}
	}
	return out
}

func haVerdictValues(vs []*monitor.Verdict) []monitor.Verdict {
	out := make([]monitor.Verdict, len(vs))
	for i, v := range vs {
		out[i] = *v
		out[i].MeanCorr = 0 // ephemeral drift signal, not durable
	}
	return out
}

// TestKillPrimaryPromoteStandbyBitIdentical is the HA acceptance e2e: a
// primary persists a detection run and serves replication; a warm standby
// tails its WAL and snapshot. Mid-run the primary is killed (abandoned, no
// flush, no close) and the standby is promoted: it opens its mirror,
// adopts the next epoch, rehydrates at the mirrored snapshot, and resumes
// feeding from there. The
// promoted node's durable verdict stream, thresholds, and feedback must be
// bit-identical to an uninterrupted single-daemon reference run — and the
// dead primary, on fencing, must refuse every further write.
func TestKillPrimaryPromoteStandbyBitIdentical(t *testing.T) {
	samples := haSamples(t)

	// Reference: the uninterrupted, non-persisted run.
	refOnline := haOnline(t)
	refFb := feedback.NewStore(haFbCap)
	refCount := 0
	refVerdicts := haDrive(t, refOnline, refFb, samples, 0, haTicks, &refCount, -1)
	if refCount < 8 {
		t.Fatalf("reference run published only %d verdicts", refCount)
	}

	// ----- primary: persisted run with replication serving -----
	dirP := t.TempDir()
	stP, recP, err := store.Open(dirP, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := stP.AdoptEpoch(recP.LatestEpoch()+1, 0); err != nil {
		t.Fatal(err)
	}
	oP := haOnline(t)
	fbP := feedback.NewStoreFrom(haFbCap, recP.FeedbackRecords())
	pP := store.NewPersister(store.NewFleetPersister(stP, recP), recP, fbP, 3)
	oP.SetPersister(pP)
	fbP.SetJournal(pP)
	srv := httptest.NewServer(NewServer(stP).Handler())

	// ----- standby: tails the primary while it runs -----
	dirF := t.TempDir()
	tl, err := NewTailer(fastCfg(srv.URL, dirF))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	count := 0
	var pre []*monitor.Verdict
	for tick := 0; tick < haKillTick; tick++ {
		pre = append(pre, haDrive(t, oP, fbP, samples, tick, tick+1, &count, -1)...)
		if tick%40 == 13 {
			if err := tl.Step(ctx); err != nil {
				t.Fatalf("tail step at tick %d: %v", tick, err)
			}
		}
	}
	if count >= refCount || count < 6 {
		t.Fatalf("pre-kill run published %d verdicts (reference %d)", count, refCount)
	}
	// Final catch-up, then the primary dies: the process is abandoned
	// mid-run (no flush, no close, no final snapshot) and its endpoint
	// goes away.
	stepUntilCaughtUp(t, tl, 3)
	// The caught-up mirror holds the primary's latest snapshot.
	if want, got := store.LoadSnapshotFile(dirP), store.LoadSnapshotFile(dirF); want == nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("mirror snapshot %+v, want the primary's %+v", got, want)
	}
	srv.Close()

	// The follower's failure budget fills — the auto-promotion signal.
	for i := 0; i < 3; i++ {
		if err := tl.Step(ctx); err == nil {
			t.Fatal("step succeeded against a dead primary")
		}
	}
	if f := tl.Status().ConsecutiveFailures; f < 3 {
		t.Fatalf("consecutive failures = %d, want >= 3", f)
	}

	// ----- promotion: the mirror becomes the primary store -----
	stF, recF, epoch, err := Promote(dirF, store.Options{Fsync: store.FsyncAlways}, tl.Status().Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	// Fencing the old primary: it refuses post-demotion writes even
	// though its process is still alive.
	if err := stP.Fence(epoch); err != nil {
		t.Fatal(err)
	}
	if _, err := stP.AppendFeedback(store.FeedbackRecord{}); err == nil {
		t.Fatal("demoted primary accepted a write")
	}

	// Rehydration: the mirror holds the primary's snapshot beside the
	// full WAL, so the standby resumes the judge at the snapshot, exactly
	// like a daemon restart over the primary's own directory.
	ms := recF.MonitorState()
	resume, durable := recF.ResumeTick(), recF.DurableTick()
	if ms == nil || resume <= 0 {
		t.Fatalf("no resumable judge state in the mirror (resume tick %d)", resume)
	}
	if durable < resume {
		t.Fatalf("durable tick %d below resume tick %d", durable, resume)
	}
	oF := haOnline(t)
	if err := oF.RestoreState(ms); err != nil {
		t.Fatal(err)
	}
	fbF := feedback.NewStoreFrom(haFbCap, recF.FeedbackRecords())
	pF := store.NewPersister(store.NewFleetPersister(stF, recF), recF, fbF, 3)
	oF.SetPersister(pF)
	fbF.SetJournal(pF)

	// Resume the feed at the snapshot's tick and run to the end of the
	// workload. The persister suppresses re-appending at or below the
	// durable horizon and the scripted marks skip regenerated verdicts;
	// the threshold retune is already in the restored state, so the
	// published counter resumes past 5.
	countF := 6
	post := haDrive(t, oF, fbF, samples, resume, haTicks, &countF, durable)

	// The published stream across the pair equals the reference: the
	// primary's pre-kill verdicts, then the promoted standby's verdicts
	// past the durable horizon.
	var combined []*monitor.Verdict
	combined = append(combined, pre...)
	for _, v := range post {
		if v.Tick > durable {
			combined = append(combined, v)
		}
	}
	if got, want := haVerdictValues(combined), haVerdictValues(refVerdicts); !reflect.DeepEqual(got, want) {
		t.Fatalf("published verdict stream diverged across the failover:\n got  %d verdicts\n want %d", len(got), len(want))
	}

	// Durable state: flush, reopen, compare everything against the
	// reference — verdict history, thresholds, feedback.
	if err := pF.Flush(oF); err != nil {
		t.Fatal(err)
	}
	if err := stF.Close(); err != nil {
		t.Fatal(err)
	}
	st3, rec3, err := store.Open(dirF, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got, want := rec3.UnitVerdictHistory(0), haVerdictValues(refVerdicts); !reflect.DeepEqual(got, want) {
		t.Fatalf("durable verdict history diverged: %d vs %d verdicts", len(got), len(want))
	}
	if got, want := oF.Thresholds(), refOnline.Thresholds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("promoted thresholds %+v, want %+v", got, want)
	}
	if got, want := fbF.Snapshot(), refFb.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("feedback diverged:\n got  %+v\n want %+v", got, want)
	}
	if e := rec3.LatestEpoch(); e != 2 {
		t.Fatalf("promoted store epoch = %d, want 2", e)
	}
	stP.Close()
}

// ----- fleet/incident variant -----

type haRound struct {
	tick   int
	events []incident.Event
}

func haIncidentRounds() []haRound {
	byTick := map[int][]incident.Event{
		120: {{Unit: 0, DB: 2, KPIs: incident.KPISet(0).With(2), Start: 100, End: 120}},
		140: {{Unit: 0, DB: 2, KPIs: incident.KPISet(0).With(2), Start: 120, End: 140}},
		220: {{Unit: 9, DB: 1, KPIs: incident.KPISet(0).With(5), Start: 200, End: 220}},
	}
	for u := 1; u <= 3; u++ {
		byTick[124] = append(byTick[124], incident.Event{Unit: u, DB: 2, KPIs: incident.KPISet(0).With(12), Start: 104, End: 124})
		byTick[144] = append(byTick[144], incident.Event{Unit: u, DB: 2, KPIs: incident.KPISet(0).With(12), Start: 124, End: 144})
	}
	var rounds []haRound
	for tick := 0; tick <= 300; tick += 4 {
		rounds = append(rounds, haRound{tick: tick, events: byTick[tick]})
	}
	return rounds
}

func haIncidentCfg() incident.Config {
	return incident.Config{ProximityTicks: 16, CloseAfter: 30, MaxHistory: 64}
}

func haFeedRounds(a *incident.Aggregator, fp *store.FleetPersister, rounds []haRound) {
	var buf []incident.Transition
	a.SetPersist(func(tr incident.Transition) { buf = append(buf, tr) })
	for _, r := range rounds {
		buf = buf[:0]
		a.ObserveRound(r.tick, r.events)
		fp.RecordIncidentRound(r.tick, buf)
	}
}

// TestKillPrimaryPromoteFleetIncidentsBitIdentical pins the fleet-scale
// failover: a primary journals unit verdicts and incident rounds, a
// standby tails the multiplexed WAL, the primary dies mid-stream, and the
// promoted aggregator — restored from the mirrored journal and resuming
// the deterministic round stream — must fingerprint bit-identically to an
// uninterrupted run, with every unit's verdict history intact.
func TestKillPrimaryPromoteFleetIncidentsBitIdentical(t *testing.T) {
	rounds := haIncidentRounds()

	ref := incident.New(haIncidentCfg())
	for _, r := range rounds {
		ref.ObserveRound(r.tick, r.events)
	}
	want := ref.Fingerprint()

	// Primary: journal the first 40 rounds plus a few unit verdicts.
	dirP := t.TempDir()
	stP, recP, err := store.Open(dirP, store.Options{Fsync: store.FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := stP.AdoptEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	fpP := store.NewFleetPersister(stP, recP)
	for u := 0; u < 3; u++ {
		for _, tick := range []int{20, 40, 60} {
			var v monitor.Verdict
			v.Tick = tick
			v.Start = tick - 19
			v.Size = 20
			v.AbnormalDB = -1
			fpP.Unit(u).PersistVerdict(&v, monitor.PersistContext{})
		}
	}
	aP := incident.New(haIncidentCfg())
	haFeedRounds(aP, fpP, rounds[:40])
	srv := httptest.NewServer(NewServer(stP).Handler())

	// Standby tails everything, then the primary dies.
	dirF := t.TempDir()
	tl, err := NewTailer(fastCfg(srv.URL, dirF))
	if err != nil {
		t.Fatal(err)
	}
	stepUntilCaughtUp(t, tl, 5)
	srv.Close()
	if err := tl.Step(context.Background()); err == nil {
		t.Fatal("step succeeded against a dead primary")
	}

	// Promote and rehydrate: aggregator from the mirrored journal, unit
	// verdict histories from the mirrored unit records.
	stF, recF, epoch, err := Promote(dirF, store.Options{Fsync: store.FsyncAlways}, tl.Status().Epoch)
	if err != nil {
		t.Fatal(err)
	}
	defer stF.Close()
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	// The mirrored unit verdict streams equal the primary's durable ones
	// (recP predates the appends, so compare against a fresh recovery).
	stP.Close()
	stP2, recP2, err := store.Open(dirP, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stP2.Close()
	for u := 0; u < 3; u++ {
		if got, want := recF.UnitVerdictHistory(u), recP2.UnitVerdictHistory(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("unit %d verdict history diverged:\n got  %+v\n want %+v", u, got, want)
		}
	}

	aF := incident.New(haIncidentCfg())
	if err := aF.Restore(recF.IncidentTransitions()); err != nil {
		t.Fatal(err)
	}
	// Resume the deterministic round stream from the top; the restored
	// aggregator skips rounds at or below its horizon and continues live.
	haFeedRounds(aF, store.NewFleetPersister(stF, recF), rounds)
	if got := aF.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("promoted incident state diverged:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestTailerRunLoopAndStaleness exercises the background Run loop: it
// tails a live primary continuously, reports caught-up, then goes stale
// once the primary disappears — all within the staleness budget math.
func TestTailerRunLoopAndStaleness(t *testing.T) {
	st := primaryWithRecords(t, store.Options{Fsync: store.FsyncAlways}, 10)
	srv := httptest.NewServer(NewServer(st).Handler())

	cfg := fastCfg(srv.URL, t.TempDir())
	cfg.Poll = 10 * time.Millisecond
	cfg.StalenessBudget = 150 * time.Millisecond
	tl, err := NewTailer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { tl.Run(ctx); close(done) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := tl.Status()
		if s.CaughtUp && s.Applied == 10 && !s.Stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run loop never caught up: %+v", tl.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	// Staleness follows from the budget; the failure count, once a step's
	// retries run out.
	for {
		s := tl.Status()
		if s.Stale && s.ConsecutiveFailures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("staleness or failures never reported after primary death: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit on cancel")
	}
}
