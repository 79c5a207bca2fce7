package window

import (
	"testing"
	"testing/quick"
)

func TestScoreToLevel(t *testing.T) {
	const alpha, theta = 0.7, 0.2
	cases := []struct {
		score float64
		want  Level
	}{
		{0.9, Level3},
		{0.7, Level3}, // boundary: >= alpha
		{0.69, Level2},
		{0.5, Level2}, // boundary: >= alpha-theta
		{0.49, Level1},
		{0.0, Level1},
		{-1, Level1},
	}
	for _, c := range cases {
		if got := ScoreToLevel(c.score, alpha, theta); got != c.want {
			t.Errorf("ScoreToLevel(%v) = %v, want %v", c.score, got, c.want)
		}
	}
}

func TestKPILevelUsesBestPeer(t *testing.T) {
	const alpha, theta = 0.7, 0.2
	// One peer deviated but another is fine: this database is healthy.
	if got := KPILevel([]float64{0.1, 0.95}, alpha, theta); got != Level3 {
		t.Fatalf("best-peer level = %v, want level-3", got)
	}
	// All peers low: this database deviates.
	if got := KPILevel([]float64{0.1, 0.2, 0.3}, alpha, theta); got != Level1 {
		t.Fatalf("all-low level = %v, want level-1", got)
	}
	if got := KPILevel([]float64{0.55, 0.6}, alpha, theta); got != Level2 {
		t.Fatalf("slight deviation = %v, want level-2", got)
	}
	if got := KPILevel(nil, alpha, theta); got != Level3 {
		t.Fatalf("no peers = %v, want level-3", got)
	}
}

func TestDetermineState(t *testing.T) {
	l3 := func(n int) []Level {
		out := make([]Level, n)
		for i := range out {
			out[i] = Level3
		}
		return out
	}
	// All correlated -> healthy.
	if got := DetermineState(l3(14), 2); got != Healthy {
		t.Fatalf("all level-3 = %v", got)
	}
	// Any level-1 -> abnormal.
	ls := l3(14)
	ls[5] = Level1
	if got := DetermineState(ls, 2); got != Abnormal {
		t.Fatalf("level-1 present = %v", got)
	}
	// Level-2 within tolerance -> observable.
	ls = l3(14)
	ls[0], ls[1] = Level2, Level2
	if got := DetermineState(ls, 2); got != Observable {
		t.Fatalf("2x level-2, tol 2 = %v", got)
	}
	// Level-2 beyond tolerance -> abnormal.
	ls[2] = Level2
	if got := DetermineState(ls, 2); got != Abnormal {
		t.Fatalf("3x level-2, tol 2 = %v", got)
	}
	// Zero tolerance: a single level-2 is already abnormal.
	ls = l3(14)
	ls[0] = Level2
	if got := DetermineState(ls, 0); got != Abnormal {
		t.Fatalf("1x level-2, tol 0 = %v", got)
	}
}

func TestThresholds(t *testing.T) {
	th := DefaultThresholds(14)
	if len(th.Alpha) != 14 || th.Theta != 0.25 || th.MaxTolerance != 2 {
		t.Fatalf("defaults = %+v", th)
	}
	if th.Alpha[0] < 0.6 || th.Alpha[0] > 0.8 {
		t.Fatalf("default alpha %v outside paper's initial range", th.Alpha[0])
	}
	if err := th.Validate(14); err != nil {
		t.Fatal(err)
	}
	if err := th.Validate(10); err == nil {
		t.Fatal("wrong KPI count should fail validation")
	}
	bad := th.Clone()
	bad.Theta = -1
	if err := bad.Validate(14); err == nil {
		t.Fatal("negative theta should fail")
	}
	bad = th.Clone()
	bad.MaxTolerance = -1
	if err := bad.Validate(14); err == nil {
		t.Fatal("negative tolerance should fail")
	}
	c := th.Clone()
	c.Alpha[0] = 0.99
	if th.Alpha[0] == 0.99 {
		t.Fatal("Clone shares alpha storage")
	}
}

func TestLevelAndStateStrings(t *testing.T) {
	if Level1.String() != "level-1" || Level3.String() != "level-3" {
		t.Fatal("level names")
	}
	if Healthy.String() != "healthy" || Observable.String() != "observable" || Abnormal.String() != "abnormal" {
		t.Fatal("state names")
	}
}

func TestFlexExpansion(t *testing.T) {
	f, err := NewFlex(FlexConfig{Initial: 20, Max: 60})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 20 {
		t.Fatalf("initial size %d", f.Size())
	}
	// Observable expands W -> W+Δ with Δ defaulting to W.
	if _, done := f.Resolve(Observable); done {
		t.Fatal("first observable should expand")
	}
	if f.Size() != 40 {
		t.Fatalf("size after expand = %d, want 40", f.Size())
	}
	if _, done := f.Resolve(Observable); done {
		t.Fatal("second observable should expand to max")
	}
	if f.Size() != 60 {
		t.Fatalf("size = %d, want 60", f.Size())
	}
	// Exhausted: terminal state.
	final, done := f.Resolve(Observable)
	if !done || final != Abnormal {
		t.Fatalf("exhaustion = %v done=%v", final, done)
	}
	f.Reset()
	if f.Size() != 20 {
		t.Fatal("Reset failed")
	}
}

// A config built field by field, as the facade's users build one, judges a
// deviation still observable at W_M Abnormal (§III-C, Fig. 7).
func TestFlexExhaustionIsAbnormal(t *testing.T) {
	f, err := NewFlex(FlexConfig{Initial: 4, Max: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, done := f.Resolve(Observable); done {
		t.Fatal("first observable should expand to the maximum")
	}
	if final, done := f.Resolve(Observable); !done || final != Abnormal {
		t.Fatalf("exhaustion = %v done=%v, want abnormal/true", final, done)
	}
}

func TestFlexImmediateVerdicts(t *testing.T) {
	f, _ := NewFlex(DefaultFlexConfig())
	if final, done := f.Resolve(Healthy); !done || final != Healthy {
		t.Fatal("healthy should end the round")
	}
	if final, done := f.Resolve(Abnormal); !done || final != Abnormal {
		t.Fatal("abnormal should end the round")
	}
}

func TestFlexDisabled(t *testing.T) {
	f, err := NewFlex(FlexConfig{Initial: 20, Max: 60, Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	final, done := f.Resolve(Observable)
	if !done || final != Healthy {
		t.Fatalf("disabled flex on observable = %v done=%v, want healthy/true", final, done)
	}
	if f.Size() != 20 {
		t.Fatal("disabled flex must not expand")
	}
}

func TestFlexConfigValidate(t *testing.T) {
	bad := []FlexConfig{
		{Initial: 1, Max: 60},
		{Initial: 20, Max: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if err := DefaultFlexConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: worsening any single KPI level never makes the state less
// severe (healthy < observable < abnormal under the Fig. 7 ordering).
func TestDetermineStateMonotoneProperty(t *testing.T) {
	severity := func(s State) int {
		switch s {
		case Healthy:
			return 0
		case Observable:
			return 1
		default:
			return 2
		}
	}
	f := func(raw []uint8, tol uint8) bool {
		if len(raw) == 0 {
			return true
		}
		levels := make([]Level, len(raw))
		for i, r := range raw {
			levels[i] = Level(int(r%3) + 1)
		}
		tolerance := int(tol % 4)
		base := DetermineState(levels, tolerance)
		for i := range levels {
			if levels[i] == Level1 {
				continue
			}
			worse := append([]Level(nil), levels...)
			worse[i]-- // Level3 -> Level2 or Level2 -> Level1
			if severity(DetermineState(worse, tolerance)) < severity(base) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ScoreToLevel is monotone in the score.
func TestScoreToLevelMonotoneProperty(t *testing.T) {
	f := func(a, b float64, alphaRaw, thetaRaw uint8) bool {
		alpha := 0.4 + float64(alphaRaw%40)/100
		theta := float64(thetaRaw%30) / 100
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return ScoreToLevel(lo, alpha, theta) <= ScoreToLevel(hi, alpha, theta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlexConfigMaxWindow(t *testing.T) {
	cases := []struct {
		cfg  FlexConfig
		want int
	}{
		{DefaultFlexConfig(), 60},              // 20 + 2*20
		{FlexConfig{Initial: 15, Max: 75}, 75}, // 15,30,45,60,75
		{FlexConfig{Initial: 20, Max: 50}, 40}, // 20,40; 60 > 50
		{FlexConfig{Initial: 25, Max: 45}, 25}, // first expansion overshoots
		{FlexConfig{Initial: 20, Max: 20}, 20}, // no headroom
		{FlexConfig{Initial: 20, Max: 60, Disabled: true}, 20},
	}
	for _, tc := range cases {
		if got := tc.cfg.MaxWindow(); got != tc.want {
			t.Errorf("MaxWindow(%+v) = %d, want %d", tc.cfg, got, tc.want)
		}
	}
	// MaxWindow must agree with what Flex actually reaches.
	for _, tc := range cases {
		if tc.cfg.Validate() != nil {
			continue
		}
		f, err := NewFlex(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		last := f.Size()
		for {
			_, done := f.Resolve(Observable)
			if done {
				break
			}
			last = f.Size()
		}
		if last != tc.cfg.MaxWindow() {
			t.Errorf("%+v: flex reached %d, MaxWindow says %d", tc.cfg, last, tc.cfg.MaxWindow())
		}
	}
}
