package monitor

import (
	"encoding/json"
	"reflect"
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

func persistTestUnit(t *testing.T, faulty bool) *cluster.Unit {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "p", Ticks: 300, Seed: 91, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty {
		if _, err := anomaly.Inject(u, []anomaly.Event{
			{Type: anomaly.Stall, DB: 1, Start: 140, Length: 30, Magnitude: 0.9},
		}, mathx.NewRNG(3)); err != nil {
			t.Fatal(err)
		}
	}
	return u
}

func persistTestOnline(t *testing.T) *Online {
	t.Helper()
	o, err := NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Flex:       window.FlexConfig{Initial: 10, Max: 30},
		Workers:    1,
	}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// pushRange streams ticks [from, to) of u (with a missed tick every 71)
// and returns the published verdicts.
func pushRange(t *testing.T, o *Online, u *cluster.Unit, from, to int) []*Verdict {
	t.Helper()
	var out []*Verdict
	for tick := from; tick < to; tick++ {
		var sample [][]float64
		if tick%71 != 13 {
			sample = make([][]float64, u.Series.KPIs)
			for k := range sample {
				sample[k] = make([]float64, u.Series.Databases)
				for d := range sample[k] {
					sample[k][d] = u.Series.Data[k][d].At(tick)
				}
			}
		}
		v, err := o.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// An export taken mid-stream (and round-tripped through JSON, as the
// snapshot file does) must restore into a judge that continues with
// verdicts identical to the uninterrupted original — healthy and faulty
// streams alike.
func TestExportRestoreContinuesIdentically(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		name := map[bool]string{false: "healthy", true: "faulty"}[faulty]
		t.Run(name, func(t *testing.T) {
			u := persistTestUnit(t, faulty)
			ref := persistTestOnline(t)
			refVerdicts := pushRange(t, ref, u, 0, 300)
			if faulty {
				sawAbnormal := false
				for _, v := range refVerdicts {
					sawAbnormal = sawAbnormal || v.Abnormal
				}
				if !sawAbnormal {
					t.Fatal("faulty stream produced no abnormal verdict; test is vacuous")
				}
			}

			// Replay the first half on a second judge, export mid-round,
			// and JSON round-trip the state.
			first := persistTestOnline(t)
			firstVerdicts := pushRange(t, first, u, 0, 157)
			st := first.ExportState()
			buf, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var decoded PersistentState
			if err := json.Unmarshal(buf, &decoded); err != nil {
				t.Fatal(err)
			}

			second := persistTestOnline(t)
			if err := second.RestoreState(&decoded); err != nil {
				t.Fatal(err)
			}
			secondVerdicts := pushRange(t, second, u, 157, 300)

			all := append(verdictPtrsToValues(firstVerdicts), verdictPtrsToValues(secondVerdicts)...)
			want := verdictPtrsToValues(refVerdicts)
			if !reflect.DeepEqual(all, want) {
				t.Fatalf("stitched run diverged:\n got  %+v\n want %+v", all, want)
			}
			gotH, wantH := second.Health(), ref.Health()
			if !reflect.DeepEqual(gotH, wantH) {
				t.Fatalf("health diverged:\n got  %+v\n want %+v", gotH, wantH)
			}
		})
	}
}

// TestRestoreStateStartsWithoutEvidence: evidence is not persisted, so a
// restored judge — even one that had explained verdicts before — explains
// nothing until it judges a round of its own.
func TestRestoreStateStartsWithoutEvidence(t *testing.T) {
	u := persistTestUnit(t, true)
	o := persistTestOnline(t)
	if v, exps := o.Explain(); v != nil || exps != nil {
		t.Fatalf("fresh judge explains %+v", v)
	}
	if len(pushRange(t, o, u, 0, 157)) == 0 {
		t.Fatal("no verdict before the export")
	}
	if v, _ := o.Explain(); v == nil {
		t.Fatal("judge with verdicts explains nothing")
	}
	if err := o.RestoreState(o.ExportState()); err != nil {
		t.Fatal(err)
	}
	if v, exps := o.Explain(); v != nil || exps != nil {
		t.Fatalf("restored judge explains %+v", v)
	}
	for tick := 157; tick < 300; tick++ {
		vs := pushRange(t, o, u, tick, tick+1)
		if len(vs) == 0 || vs[0].Health == detect.HealthSkipped {
			continue
		}
		if v, exps := o.Explain(); v != vs[0] || len(exps) != u.Series.Databases {
			t.Fatalf("tick %d: restored judge explains %+v, want its new verdict %+v", tick, v, vs[0])
		}
		return
	}
	t.Fatal("restored judge judged no round")
}

func verdictPtrsToValues(vs []*Verdict) []Verdict {
	out := make([]Verdict, len(vs))
	for i, v := range vs {
		out[i] = *v
	}
	return out
}

func TestRestoreStateValidation(t *testing.T) {
	u := persistTestUnit(t, false)
	o := persistTestOnline(t)
	// Export mid-round: the export carries the in-flight round's ring
	// values, which the ring-length case cuts.
	pushRange(t, o, u, 0, 105)
	good := o.ExportState()
	if len(good.Rings[0].Values) < 2 {
		t.Fatalf("export at tick %d carries %d ring values: not mid-round", good.Tick, len(good.Rings[0].Values))
	}

	cases := []struct {
		name   string
		mutate func(st *PersistentState)
	}{
		{"shape mismatch", func(st *PersistentState) { st.DBs = 7 }},
		{"flex mismatch", func(st *PersistentState) { st.Flex.Initial = 11 }},
		{"bad thresholds", func(st *PersistentState) { st.Thresholds.Alpha = st.Thresholds.Alpha[:2] }},
		{"over-capacity retention", func(st *PersistentState) { st.Oldest = st.Tick - 1000 }},
		{"negative oldest span", func(st *PersistentState) { st.Oldest = st.Tick + 1 }},
		{"ring count", func(st *PersistentState) { st.Rings = st.Rings[:3] }},
		{"ring length", func(st *PersistentState) { st.Rings[0].Values = st.Rings[0].Values[:1] }},
		{"round start ahead of stream", func(st *PersistentState) { st.RoundStart = st.Tick + 5 }},
		{"negative round start", func(st *PersistentState) { st.RoundStart = -1 }},
		{"active mask length", func(st *PersistentState) { st.UserActive = []bool{true} }},
		{"flex size off-sequence", func(st *PersistentState) { st.FlexSize = 17 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Each case gets a fresh deep copy via JSON.
			buf, err := json.Marshal(good)
			if err != nil {
				t.Fatal(err)
			}
			var st PersistentState
			if err := json.Unmarshal(buf, &st); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&st)
			if err := persistTestOnline(t).RestoreState(&st); err == nil {
				t.Fatal("invalid state accepted")
			}
		})
	}

	if err := persistTestOnline(t).RestoreState(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	// The unmutated export still restores.
	if err := persistTestOnline(t).RestoreState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

// Rolling accounting written under a different budget window keeps the
// cumulative counters but is reinitialized instead of failing the restore.
func TestRestoreStateDegradedShapeMismatch(t *testing.T) {
	u := persistTestUnit(t, false)
	o := persistTestOnline(t)
	pushRange(t, o, u, 0, 100)
	st := o.ExportState()
	st.SilentHist = st.SilentHist[:7]

	o2 := persistTestOnline(t)
	if err := o2.RestoreState(st); err != nil {
		t.Fatalf("restore across a degraded-config change failed: %v", err)
	}
	h := o2.Health()
	if h.GapCells != st.GapCells || h.MissedTicks != st.MissedTicks {
		t.Fatalf("cumulative counters lost: %+v", h)
	}
	if len(h.SilentRecent) != 5 {
		t.Fatalf("rolling accounting not reinitialized: %+v", h.SilentRecent)
	}
}

// recordingPersister exercises the hook contract: PersistContext accessors
// must be usable from inside the hook (where the judge's mutex is held).
type recordingPersister struct {
	verdicts   []Verdict
	ticks      []int
	thresholds []window.Thresholds
	exports    []*PersistentState
}

func (r *recordingPersister) PersistVerdict(v *Verdict, ctx PersistContext) {
	r.verdicts = append(r.verdicts, *v)
	r.ticks = append(r.ticks, ctx.Tick())
	r.exports = append(r.exports, ctx.Export())
}

func (r *recordingPersister) PersistThresholds(t window.Thresholds, ctx PersistContext) {
	r.thresholds = append(r.thresholds, t)
	_ = ctx.Export()
	_ = ctx.Tick()
}

func TestPersisterHooksFireUnderLock(t *testing.T) {
	u := persistTestUnit(t, false)
	o := persistTestOnline(t)
	rec := &recordingPersister{}
	o.SetPersister(rec)

	verdicts := pushRange(t, o, u, 0, 120)
	if len(verdicts) == 0 {
		t.Fatal("no verdicts published")
	}
	if len(rec.verdicts) != len(verdicts) {
		t.Fatalf("hook saw %d verdicts, judge published %d", len(rec.verdicts), len(verdicts))
	}
	for i, v := range verdicts {
		if !reflect.DeepEqual(rec.verdicts[i], *v) {
			t.Fatalf("hook verdict %d diverged", i)
		}
		if rec.ticks[i] != v.Tick {
			t.Fatalf("hook %d saw tick %d, verdict says %d", i, rec.ticks[i], v.Tick)
		}
		if rec.exports[i].Tick != v.Tick {
			t.Fatalf("hook %d export tick %d, want %d", i, rec.exports[i].Tick, v.Tick)
		}
	}

	th := o.Thresholds()
	th.Theta = 0.31
	if err := o.SetThresholds(th); err != nil {
		t.Fatal(err)
	}
	if len(rec.thresholds) != 1 || rec.thresholds[0].Theta != 0.31 {
		t.Fatalf("threshold hook saw %+v", rec.thresholds)
	}

	// Detach: no further hook calls.
	o.SetPersister(nil)
	n := len(rec.verdicts)
	pushRange(t, o, u, 120, 180)
	if len(rec.verdicts) != n {
		t.Fatal("detached persister still invoked")
	}
}

// The export must not alias live judge state: mutating the snapshot later
// cannot corrupt the running judge.
func TestExportStateIsDeepCopy(t *testing.T) {
	u := persistTestUnit(t, false)
	o := persistTestOnline(t)
	pushRange(t, o, u, 0, 55) // mid-round, so the export carries ring values
	st := o.ExportState()
	if len(st.Rings[0].Values) == 0 {
		t.Fatalf("export at tick %d carries no ring values: not mid-round", st.Tick)
	}
	st.Thresholds.Alpha[0] = -99
	for i := range st.Rings {
		for j := range st.Rings[i].Values {
			st.Rings[i].Values[j] = -1
		}
	}
	if o.Thresholds().Alpha[0] == -99 {
		t.Fatal("export aliases live thresholds")
	}
	// The judge still resolves rounds identically to a fresh reference.
	got := verdictPtrsToValues(pushRange(t, o, u, 55, 150))
	ref := persistTestOnline(t)
	want := verdictPtrsToValues(pushRange(t, ref, u, 0, 150))
	tail := want[len(want)-len(got):]
	if !reflect.DeepEqual(got, tail) {
		t.Fatalf("judge corrupted by snapshot mutation:\n got  %+v\n want %+v", got, tail)
	}
}
