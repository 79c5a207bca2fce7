package detect

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/window"
)

func TestExplainNamesCulpritKPIs(t *testing.T) {
	u := testUnit(t, 200, 9, 1e-9)
	target := 2
	affected := []kpi.KPI{kpi.CPUUtilization, kpi.InnodbRowsRead}
	if _, err := anomaly.Inject(u, []anomaly.Event{{
		Type: anomaly.Stall, DB: target, Start: 100, Length: 40,
		Magnitude: 0.9, KPIs: affected,
	}}, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	p := NewProvider(u.Series, nil, nil)
	exps, err := Explain(p, defaultConfig(), 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 5 {
		t.Fatalf("explanations = %d", len(exps))
	}
	e := exps[target]
	if e.State == window.Healthy {
		t.Fatalf("target state = %v", e.State)
	}
	culprits := e.Culprits()
	found := map[kpi.KPI]bool{}
	for _, c := range culprits {
		found[c] = true
	}
	for _, k := range affected {
		if !found[k] {
			t.Errorf("culprits %v miss affected KPI %v", culprits, k)
		}
	}
	// Worst level sorts first.
	for i := 1; i < len(e.KPIs); i++ {
		if e.KPIs[i].Level < e.KPIs[i-1].Level {
			t.Fatal("findings not sorted worst-first")
		}
	}
	// A healthy peer has no level-1 findings.
	peer := exps[3]
	for _, f := range peer.KPIs {
		if f.Level == window.Level1 {
			t.Errorf("healthy peer has level-1 on %v", f.KPI)
		}
	}
	// String mentions the db and state.
	if !strings.Contains(e.String(), "db2") {
		t.Fatalf("String() = %q", e.String())
	}
}

func TestExplainValidates(t *testing.T) {
	u := testUnit(t, 100, 10, 1e-9)
	p := NewProvider(u.Series, nil, nil)
	cfg := defaultConfig()
	cfg.Thresholds.Alpha = cfg.Thresholds.Alpha[:1]
	if _, err := Explain(p, cfg, 0, 20); err == nil {
		t.Fatal("bad thresholds should error")
	}
	if _, err := Explain(p, defaultConfig(), 90, 20); err == nil {
		t.Fatal("out-of-range window should error")
	}
}

func TestExplainInactiveDatabase(t *testing.T) {
	u := testUnit(t, 100, 11, 1e-9)
	cfg := defaultConfig()
	cfg.Active = []bool{true, true, true, true, false}
	exps, err := Explain(NewProvider(u.Series, nil, cfg.Active), cfg, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if exps[4].State != window.Healthy || len(exps[4].KPIs) != 0 {
		t.Fatal("inactive database should have an empty healthy explanation")
	}
}

// ExplainOracle is Explain as it was before it ran the judge: its own
// per-database loop over the window's matrices. Explain, and the online
// judge's explanations given the round's inputs, must equal it bit for bit.
// It is exported for the agreement tests of package detect_test.
func ExplainOracle(p MatrixProvider, cfg Config, start, size int) ([]*Explanation, error) {
	cfg = cfg.withDefaults()
	_, kpis, dbs := p.Shape()
	if err := cfg.Thresholds.Validate(kpis); err != nil {
		return nil, err
	}
	mats, err := p.Matrices(start, size)
	if err != nil {
		return nil, err
	}
	out := make([]*Explanation, dbs)
	for d := 0; d < dbs; d++ {
		e := &Explanation{DB: d}
		if cfg.Active != nil && !cfg.Active[d] {
			e.State = window.Healthy
			out[d] = e
			continue
		}
		levels := make([]window.Level, 0, kpis)
		for k := 0; k < kpis; k++ {
			rr := isRROnly(k, kpis)
			if rr && d == cfg.Primary {
				continue
			}
			scores := peerScoresInto(nil, mats[k], d, cfg, rr)
			best := -2.0
			for _, s := range scores {
				if s > best {
					best = s
				}
			}
			level := window.KPILevel(scores, cfg.Thresholds.Alpha[k], cfg.Thresholds.Theta)
			levels = append(levels, level)
			e.KPIs = append(e.KPIs, KPIFinding{KPI: kpi.KPI(k), Level: level, BestScore: best})
		}
		e.State = window.DetermineState(levels, cfg.Thresholds.MaxTolerance)
		sort.SliceStable(e.KPIs, func(i, j int) bool {
			if e.KPIs[i].Level != e.KPIs[j].Level {
				return e.KPIs[i].Level < e.KPIs[j].Level
			}
			return e.KPIs[i].BestScore < e.KPIs[j].BestScore
		})
		out[d] = e
	}
	return out, nil
}

// randomMatrices is a MatrixProvider of seeded random correlation
// matrices: scores on a coarse grid (so best-score ties are common) with
// the odd NaN, a different draw for every window.
type randomMatrices struct {
	seed             uint64
	ticks, kpis, dbs int
}

func (p randomMatrices) Shape() (int, int, int) { return p.ticks, p.kpis, p.dbs }

func (p randomMatrices) Matrices(start, size int) ([]*correlate.Matrix, error) {
	rng := mathx.NewRNG(p.seed ^ uint64(start)<<20 ^ uint64(size))
	mats := make([]*correlate.Matrix, p.kpis)
	for k := range mats {
		m := correlate.NewMatrix(p.dbs)
		for i := 0; i < p.dbs; i++ {
			for j := i + 1; j < p.dbs; j++ {
				v := math.Round(rng.Float64()*40-20) / 20
				if rng.Float64() < 0.02 {
					v = math.NaN()
				}
				m.Set(i, j, v)
			}
		}
		mats[k] = m
	}
	return mats, nil
}

// TestExplainMatchesOracle: Explain runs the judge and reads its evidence,
// and must equal the pre-change loop on random windows, with every primary
// setting, with and without an active mask, and off the 14-KPI layout.
func TestExplainMatchesOracle(t *testing.T) {
	rng := mathx.NewRNG(99)
	u := testUnit(t, 300, 12, 1e-9)
	if _, err := anomaly.Inject(u, []anomaly.Event{{
		Type: anomaly.Stall, DB: 1, Start: 120, Length: 60, Magnitude: 0.9,
		KPIs: []kpi.KPI{kpi.CPUUtilization, kpi.InnodbRowsRead},
	}}, mathx.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	providers := []struct {
		name string
		p    MatrixProvider
	}{
		{"simulated", NewProvider(u.Series, nil, nil)},
		{"random-14x5", randomMatrices{seed: 1, ticks: 300, kpis: kpi.Count, dbs: 5}},
		{"random-6x4", randomMatrices{seed: 2, ticks: 300, kpis: 6, dbs: 4}},
		{"random-3x7", randomMatrices{seed: 3, ticks: 300, kpis: 3, dbs: 7}},
	}
	for _, pc := range providers {
		ticks, kpis, dbs := pc.p.Shape()
		for trial := 0; trial < 40; trial++ {
			cfg := Config{Thresholds: window.Thresholds{
				Alpha:        make([]float64, kpis),
				Theta:        0.05 + 0.35*rng.Float64(),
				MaxTolerance: rng.Intn(4),
			}}
			for k := range cfg.Thresholds.Alpha {
				cfg.Thresholds.Alpha[k] = 0.3 + 0.6*rng.Float64()
			}
			cfg.Primary = []int{-1, 0, 2}[trial%3]
			if trial%2 == 1 {
				cfg.Active = make([]bool, dbs)
				for d := range cfg.Active {
					cfg.Active[d] = rng.Float64() < 0.7
				}
			}
			size := 20 + rng.Intn(41)
			start := rng.Intn(ticks - size + 1)
			got, err := Explain(pc.p, cfg, start, size)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ExplainOracle(pc.p, cfg, start, size)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d (primary %d, active %v, [%d,+%d)): Explain differs from the oracle\n got %v\nwant %v",
					pc.name, trial, cfg.Primary, cfg.Active, start, size, explanations(got), explanations(want))
			}
		}
	}
}

func explanations(es []*Explanation) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%+v", *e)
	}
	return out
}
