package store

import (
	"os"
	"reflect"
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

const (
	e2eTicks     = 400
	e2eDBs       = 5
	e2eCrashTick = 257 // mid-round for the 10/30 flex config
	e2eFbCap     = 512
)

func e2eFlex() window.FlexConfig {
	return window.FlexConfig{Initial: 10, Max: 30}
}

// e2eSamples builds the deterministic replay stream: a simulated unit with
// an injected stall, delivered with a few wholly-missed ticks.
func e2eSamples(t *testing.T) [][][]float64 {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "e2e", Ticks: e2eTicks, Seed: 1207, Profile: workload.TencentIrregular,
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
	samples := make([][][]float64, e2eTicks)
	for tick := 0; tick < e2eTicks; tick++ {
		if tick%89 == 17 {
			continue // collector outage: a wholly-missed tick (nil sample)
		}
		s := make([][]float64, kpi.Count)
		for k := range s {
			s[k] = make([]float64, e2eDBs)
			for d := 0; d < e2eDBs; d++ {
				s[k][d] = u.Series.Data[k][d].At(tick)
			}
		}
		samples[tick] = s
	}
	return samples
}

func e2eOnline(t *testing.T) *monitor.Online {
	t.Helper()
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Flex:       e2eFlex(),
		Workers:    1,
	}, kpi.Count, e2eDBs)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// e2eDrive pushes samples[from:to) through o, reproducing the scripted
// operator activity: after the 5th published verdict (counted across the
// whole run via *published) the thresholds are retuned, and every verdict
// with Tick > markAbove gets a DBA feedback mark.
func e2eDrive(t *testing.T, o *monitor.Online, fb *feedback.Store, samples [][][]float64, from, to int, published *int, markAbove int) []*monitor.Verdict {
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

func verdictValues(vs []*monitor.Verdict) []monitor.Verdict {
	out := make([]monitor.Verdict, len(vs))
	for i, v := range vs {
		out[i] = *v
		// MeanCorr is an ephemeral drift signal, not part of the durable
		// verdict record; clear it so live verdicts compare against
		// recovered history.
		out[i].MeanCorr = 0
	}
	return out
}

// TestCrashRecoveryResumesBitIdentical is the acceptance end-to-end: run a
// persisted detection stream, "crash" mid-stream by abandoning the store
// handle (no Close, no final snapshot), reopen, resume — the union of
// pre-crash and post-resume output must be bit-identical to an
// uninterrupted reference run: same verdict sequence, same thresholds, same
// feedback records.
func TestCrashRecoveryResumesBitIdentical(t *testing.T) {
	samples := e2eSamples(t)

	// Reference: the uninterrupted, non-persisted run.
	refOnline := e2eOnline(t)
	refFb := feedback.NewStore(e2eFbCap)
	refCount := 0
	refVerdicts := e2eDrive(t, refOnline, refFb, samples, 0, e2eTicks, &refCount, -1)
	if refCount < 8 {
		t.Fatalf("reference run published only %d verdicts; test needs a threshold swap plus headroom", refCount)
	}

	for _, tearTail := range []bool{false, true} {
		name := "clean tail"
		if tearTail {
			name = "torn tail"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()

			// ----- phase 1: persisted run up to the crash -----
			st, rec, err := Open(dir, Options{Fsync: FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			o1 := e2eOnline(t)
			fb1 := feedback.NewStoreFrom(e2eFbCap, rec.FeedbackRecords())
			p1 := NewPersister(NewFleetPersister(st, rec), rec, fb1, 3)
			o1.SetPersister(p1)
			fb1.SetJournal(p1)
			count := 0
			pre := e2eDrive(t, o1, fb1, samples, 0, e2eCrashTick, &count, -1)
			if count >= refCount || count < 6 {
				t.Fatalf("pre-crash run published %d verdicts (reference %d); crash tick badly placed", count, refCount)
			}
			// Crash: abandon st / o1 / fb1 with no Close and no final
			// snapshot. FsyncAlways means every append already hit disk.

			if tearTail {
				// And the final record was torn mid-write.
				seg := lastSegment(t, dir)
				f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{0x55, 0x3, 0x99}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			// ----- phase 2: reopen and resume -----
			st2, rec2, err := Open(dir, Options{Fsync: FsyncAlways})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if tearTail && !st2.Metrics().TornTail {
				t.Fatal("torn tail not detected")
			}
			ms := rec2.MonitorState()
			if ms == nil {
				t.Fatal("no resumable monitor state recovered")
			}
			o2 := e2eOnline(t)
			if err := o2.RestoreState(ms); err != nil {
				t.Fatalf("restore: %v", err)
			}
			fb2 := feedback.NewStoreFrom(e2eFbCap, rec2.FeedbackRecords())
			p2 := NewPersister(NewFleetPersister(st2, rec2), rec2, fb2, 3)
			o2.SetPersister(p2)
			fb2.SetJournal(p2)

			resume := rec2.ResumeTick()
			durable := rec2.DurableTick()
			if resume <= 0 || resume > e2eCrashTick {
				t.Fatalf("resume tick %d outside (0, %d]", resume, e2eCrashTick)
			}
			if durable < resume {
				t.Fatalf("durable tick %d below resume tick %d", durable, resume)
			}

			// The resumed run re-ingests from the snapshot position. The
			// scripted threshold swap must not re-fire (it is already in
			// the restored state), so the published counter resumes past 5;
			// regenerated verdicts (Tick <= durable) were already marked
			// pre-crash and must not be re-marked.
			count2 := 6
			post := e2eDrive(t, o2, fb2, samples, resume, e2eTicks, &count2, durable)

			// Regenerated catch-up verdicts must be bit-identical to what
			// the pre-crash run published for those rounds.
			preVals := verdictValues(pre)
			for _, v := range post {
				if v.Tick > durable {
					continue
				}
				found := false
				for _, pv := range preVals {
					if pv.Tick == v.Tick {
						found = true
						got := *v
						got.MeanCorr = 0 // ephemeral, stripped by verdictValues
						if !reflect.DeepEqual(pv, got) {
							t.Fatalf("regenerated verdict at tick %d diverged:\n pre  %+v\n post %+v", v.Tick, pv, *v)
						}
					}
				}
				if !found {
					t.Fatalf("catch-up produced a verdict at tick %d the pre-crash run never published", v.Tick)
				}
			}

			// Flush (graceful shutdown) and reopen once more: the full
			// durable verdict history must equal the reference sequence.
			if err := p2.Flush(o2); err != nil {
				t.Fatalf("flush: %v", err)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3, rec3, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st3.Close()

			gotVerdicts := rec3.UnitVerdictHistory(0)
			wantVerdicts := verdictValues(refVerdicts)
			if len(gotVerdicts) != len(wantVerdicts) {
				t.Fatalf("durable history holds %d verdicts, reference published %d", len(gotVerdicts), len(wantVerdicts))
			}
			for i := range wantVerdicts {
				if !reflect.DeepEqual(gotVerdicts[i], wantVerdicts[i]) {
					t.Fatalf("verdict %d mismatch:\n got  %+v\n want %+v", i, gotVerdicts[i], wantVerdicts[i])
				}
			}

			// Thresholds: the resumed judge and the recovered store must
			// both hold the reference's retuned set.
			if got, want := o2.Thresholds(), refOnline.Thresholds(); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed thresholds %+v, want %+v", got, want)
			}
			if th := rec3.LatestThresholds(); th == nil || !reflect.DeepEqual(*th, refOnline.Thresholds()) {
				t.Fatalf("recovered thresholds %+v, want %+v", th, refOnline.Thresholds())
			}

			// Feedback records: identical sequence, no loss, no duplicates.
			if got, want := fb2.Snapshot(), refFb.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("feedback records diverged:\n got  %+v\n want %+v", got, want)
			}
			if got, want := rec3.FeedbackRecords(), refFb.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered feedback records diverged:\n got  %+v\n want %+v", got, want)
			}

			// Health counters converge to the reference's.
			gotH, wantH := o2.Health(), refOnline.Health()
			if gotH.GapCells != wantH.GapCells || gotH.MissedTicks != wantH.MissedTicks ||
				gotH.SkippedRounds != wantH.SkippedRounds || gotH.DegradedVerdicts != wantH.DegradedVerdicts {
				t.Fatalf("health diverged:\n got  %+v\n want %+v", gotH, wantH)
			}
		})
	}
}

// TestPersisterSuppressesRegeneratedVerdicts pins the dedupe bookkeeping:
// catch-up replays must be counted as suppressed, not re-appended.
func TestPersisterSuppressesRegeneratedVerdicts(t *testing.T) {
	samples := e2eSamples(t)
	dir := t.TempDir()

	st, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := e2eOnline(t)
	// A lagging snapshot cadence leaves verdicts in the WAL beyond the
	// snapshot position, so the restart has rounds to regenerate.
	p := NewPersister(NewFleetPersister(st, rec), rec, nil, 7)
	o.SetPersister(p)
	count := 0
	pre := e2eDrive(t, o, nil, samples, 0, e2eCrashTick, &count, -1)
	st.Close() // graceful close, but no final Flush snapshot

	st2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	o2 := e2eOnline(t)
	if err := o2.RestoreState(rec2.MonitorState()); err != nil {
		t.Fatal(err)
	}
	p2 := NewPersister(NewFleetPersister(st2, rec2), rec2, nil, 1)
	o2.SetPersister(p2)
	count2 := 6
	post := e2eDrive(t, o2, nil, samples, rec2.ResumeTick(), e2eTicks, &count2, 0)

	status, ok := p2.Status().(Status)
	if !ok {
		t.Fatalf("Status returned %T", p2.Status())
	}
	// rec2's horizons are recovery-time constants, so they classify the
	// post-restart stream exactly: at or below DurableTick is a replay.
	regenerated := 0
	for _, v := range post {
		if v.Tick <= rec2.DurableTick() {
			regenerated++
		}
	}
	if regenerated == 0 {
		t.Fatalf("resume produced no catch-up verdicts (resume %d, durable %d)", rec2.ResumeTick(), rec2.DurableTick())
	}
	if got := int(status.Suppressed); got != regenerated {
		t.Fatalf("suppressed replays = %d, want %d", got, regenerated)
	}
	if got := int(status.Verdicts); got != len(post)-regenerated {
		t.Fatalf("fresh appends = %d, want %d (pre-crash run had published %d)", got, len(post)-regenerated, len(pre))
	}
}
