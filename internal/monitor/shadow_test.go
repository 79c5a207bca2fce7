package monitor

import (
	"math"
	"reflect"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

func shadowUnit(t *testing.T) *cluster.Unit {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "shadow", Ticks: 200, Seed: 17, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func newShadowOnline(t *testing.T) *Online {
	t.Helper()
	o, err := NewOnline(detect.Config{Thresholds: window.DefaultThresholds(kpi.Count)}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestShadowIdenticalThresholdsNeverFlip(t *testing.T) {
	u := shadowUnit(t)
	o := newShadowOnline(t)
	if err := o.StartShadow(o.Thresholds(), 100); err != nil {
		t.Fatal(err)
	}
	feedOnline(t, o, u)
	st := o.ShadowStatus()
	if !st.Active {
		t.Fatal("shadow should still be active")
	}
	if st.Rounds == 0 {
		t.Fatal("no rounds compared over 200 ticks")
	}
	if st.Flips != 0 || st.FlipRate() != 0 {
		t.Fatalf("identical thresholds flipped %d/%d rounds", st.Flips, st.Rounds)
	}
	if !st.Done {
		t.Fatalf("200 ticks past a 100-tick target should be Done: %+v", st)
	}
	if st.TicksElapsed < st.TargetTicks {
		t.Fatalf("elapsed %d < target %d", st.TicksElapsed, st.TargetTicks)
	}
}

func TestShadowHostileThresholdsFlip(t *testing.T) {
	u := shadowUnit(t)
	o := newShadowOnline(t)
	// Alpha = 1 marks every pair abnormal (scores are < 1), so the shadow
	// disagrees with the live judge on essentially every healthy round.
	hostile := window.Thresholds{Alpha: make([]float64, kpi.Count), Theta: 0, MaxTolerance: 0}
	for i := range hostile.Alpha {
		hostile.Alpha[i] = 1
	}
	if err := o.StartShadow(hostile, 50); err != nil {
		t.Fatal(err)
	}
	feedOnline(t, o, u)
	st := o.ShadowStatus()
	if st.Rounds == 0 || st.Flips == 0 {
		t.Fatalf("hostile shadow should flip: %d/%d", st.Flips, st.Rounds)
	}
	if st.FlipRate() < 0.5 {
		t.Fatalf("flip rate %.3f, want most rounds flipped", st.FlipRate())
	}
}

func TestShadowPromoteSwapsAtomically(t *testing.T) {
	u := shadowUnit(t)
	o := newShadowOnline(t)
	before := o.Thresholds()
	cand := before.Clone()
	cand.Theta = 0.27
	if err := o.StartShadow(cand, 60); err != nil {
		t.Fatal(err)
	}
	feedOnline(t, o, u)
	if err := o.PromoteShadow(); err != nil {
		t.Fatal(err)
	}
	if got := o.Thresholds(); !reflect.DeepEqual(got, cand) {
		t.Fatalf("promoted thresholds %+v, want %+v", got, cand)
	}
	if o.ShadowStatus().Active {
		t.Fatal("promotion must end the comparison")
	}
	if err := o.PromoteShadow(); err == nil {
		t.Fatal("second promote without a shadow should fail")
	}
}

func TestShadowStopDiscardsCandidate(t *testing.T) {
	o := newShadowOnline(t)
	before := o.Thresholds()
	cand := before.Clone()
	cand.Theta = 0.12
	if err := o.StartShadow(cand, 10); err != nil {
		t.Fatal(err)
	}
	o.StopShadow()
	if o.ShadowStatus().Active {
		t.Fatal("stopped shadow still active")
	}
	if got := o.Thresholds(); !reflect.DeepEqual(got, before) {
		t.Fatalf("rollback touched live thresholds: %+v", got)
	}
	o.StopShadow() // idempotent
}

func TestShadowStartValidates(t *testing.T) {
	o := newShadowOnline(t)
	if err := o.StartShadow(window.Thresholds{}, 10); err == nil {
		t.Fatal("empty thresholds accepted")
	}
	if err := o.StartShadow(o.Thresholds(), 0); err == nil {
		t.Fatal("zero target accepted")
	}
}

func TestVerdictMeanCorrPopulated(t *testing.T) {
	u := shadowUnit(t)
	o := newShadowOnline(t)
	verdicts := feedOnline(t, o, u)
	if len(verdicts) == 0 {
		t.Fatal("no verdicts")
	}
	for _, v := range verdicts {
		if v.Health == detect.HealthSkipped {
			if !math.IsNaN(v.MeanCorr) {
				t.Fatalf("skipped round MeanCorr = %v, want NaN", v.MeanCorr)
			}
			continue
		}
		if math.IsNaN(v.MeanCorr) || v.MeanCorr < -1 || v.MeanCorr > 1 {
			t.Fatalf("MeanCorr out of range: %v", v.MeanCorr)
		}
	}
}

// TestShadowLeavesLiveEvidence: the shadow judges on the live judge's free
// scratch, so explaining a verdict reads the live judgment even while a
// hostile candidate is shadowed.
func TestShadowLeavesLiveEvidence(t *testing.T) {
	u := shadowUnit(t)
	live, shadowed := newShadowOnline(t), newShadowOnline(t)
	hostile := window.Thresholds{Alpha: make([]float64, kpi.Count), Theta: 0, MaxTolerance: 0}
	for i := range hostile.Alpha {
		hostile.Alpha[i] = 1
	}
	if err := shadowed.StartShadow(hostile, 50); err != nil {
		t.Fatal(err)
	}
	sample := make([][]float64, u.Series.KPIs)
	for k := range sample {
		sample[k] = make([]float64, u.Series.Databases)
	}
	explained := 0
	for tick := 0; tick < u.Series.Len(); tick++ {
		for k := range sample {
			for d := range sample[k] {
				sample[k][d] = u.Series.Data[k][d].At(tick)
			}
		}
		want, err := live.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shadowed.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			continue
		}
		wv, wexps := live.Explain()
		gv, gexps := shadowed.Explain()
		if wv != want || gv != got || !reflect.DeepEqual(got.States, want.States) || !reflect.DeepEqual(gexps, wexps) {
			t.Fatalf("tick %d: shadowed judge explains %+v %v, live judge %+v %v", tick, gv, gexps, wv, wexps)
		}
		explained++
	}
	if st := shadowed.ShadowStatus(); explained == 0 || st.Flips == 0 {
		t.Fatalf("explained %d verdicts, shadow flipped %d rounds: nothing exercised", explained, st.Flips)
	}
}
