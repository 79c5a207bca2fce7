package experiments

import (
	"fmt"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/dataset"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/workload"
)

// TableII reproduces the indicator/correlation-type table, augmented with
// the *measured* average P-R and R-R KCD on a healthy simulated unit —
// evidence that the simulator exhibits the UKPIC phenomenon per Table II.
func TableII(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	u, err := cluster.Simulate(cluster.Config{
		Name: "tableII", Ticks: 1200, Seed: cfg.Seed,
		Profile: workload.TencentIrregular,
	})
	if err != nil {
		return nil, err
	}
	opts := correlate.DetectionOptions()
	window := 60
	avg := func(k, d1, d2 int) float64 {
		var sum float64
		n := 0
		for start := 0; start+window <= u.Series.Len(); start += window {
			w1, err := u.Series.Data[k][d1].Window(start, window)
			if err != nil {
				return 0
			}
			w2, _ := u.Series.Data[k][d2].Window(start, window)
			sum += correlate.KCD(w1, w2, opts)
			n++
		}
		return sum / float64(n)
	}
	t := &Table{
		Title:   "Table II — indicators, correlation type, and measured KCD",
		Columns: []string{"Indicator Name", "Correlation Type", "measured P-R", "measured R-R"},
	}
	for _, k := range kpi.All() {
		pr := avg(int(k), 0, 1)
		rr := avg(int(k), 1, 2)
		t.AddRow(k.String(), k.Correlation().String(),
			fmt.Sprintf("%.3f", pr), fmt.Sprintf("%.3f", rr))
	}
	t.Notes = append(t.Notes,
		"P-R typed KPIs should show high scores in both columns; R-R typed KPIs only in the R-R column")
	return t, nil
}

// TableIII reproduces the dataset statistics table at the configured
// scale.
func TableIII(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Table III — statistical information of different datasets",
		Columns: []string{"Dataset", "No. of Units", "No. of Dimensions", "Total Points", "Anomal Points", "Abnormal Ratio"},
	}
	for i, f := range []dataset.Family{dataset.Tencent, dataset.Sysbench, dataset.TPCC} {
		cfg.logf("generating %s dataset...", f)
		ds, err := cfg.generate(f, cfg.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		s := ds.Stats()
		t.AddRow(s.Name,
			fmt.Sprintf("%d", s.Units),
			fmt.Sprintf("%d", s.Dimensions),
			fmt.Sprintf("%d", s.TotalPoints),
			fmt.Sprintf("%d", s.AnomalPoints),
			pct(s.AbnormalRatio))
	}
	t.Notes = append(t.Notes,
		"paper ratios: Tencent 3.11%, Sysbench 4.21%, TPCC 4.06% (unit counts scale with -scale)")
	return t, nil
}

// Figure3 reproduces the UKPIC illustration: the pairwise correlation
// matrix of a five-database unit, with the upper triangle showing
// "BufferPool Read Requests" and the lower triangle "Innodb Data Writes"
// (Fig. 3b).
func Figure3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	u, err := cluster.Simulate(cluster.Config{
		Name: "fig3", Ticks: 600, Seed: cfg.Seed,
		Profile: workload.TencentIrregular,
	})
	if err != nil {
		return nil, err
	}
	measure := correlate.KCDMeasure(correlate.DetectionOptions())
	mats, err := correlate.BuildMatrices(u.Series, 0, 600, nil, measure)
	if err != nil {
		return nil, err
	}
	upper := mats[kpi.BufferPoolReadRequests]
	lower := mats[kpi.InnodbDataWrites]
	t := &Table{
		Title:   "Figure 3(b) — correlation scores (upper: BufferPool Read Requests, lower: Innodb Data Writes)",
		Columns: []string{"", "D1", "D2", "D3", "D4", "D5"},
	}
	for i := 0; i < 5; i++ {
		row := []string{fmt.Sprintf("D%d", i+1)}
		for j := 0; j < 5; j++ {
			switch {
			case i == j:
				row = append(row, "1.00")
			case i < j:
				row = append(row, fmt.Sprintf("%.2f", upper.At(i, j)))
			default:
				row = append(row, fmt.Sprintf("%.2f", lower.At(i, j)))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "strong off-diagonal scores = the UKPIC phenomenon of §II-B")
	return t, nil
}

// Figure5 reproduces the temporal-fluctuation illustration: the KCD of a
// window containing a short benign fluctuation, as the window grows. Short
// windows see a depressed score; longer windows dilute the fluctuation.
// Scores are averaged over many injected fluctuations.
func Figure5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	opts := correlate.DetectionOptions()
	widths := []int{12, 24, 36, 48, 60}
	sums := make([]float64, len(widths))
	const events = 30
	rng := mathx.NewRNG(cfg.Seed)
	for ev := 0; ev < events; ev++ {
		u, err := cluster.Simulate(cluster.Config{
			Name: "fig5", Ticks: 300, Seed: rng.Uint64(),
			Profile:         workload.TencentIrregular,
			FluctuationRate: 1e-9,
		})
		if err != nil {
			return nil, err
		}
		// Inject a 3-point fluctuation ending at tick `end` on db1's RPS.
		end := 100 + rng.Intn(150)
		vals := u.Series.Data[kpi.RequestsPerSecond][1].Values
		for i := end - 3; i < end; i++ {
			vals[i] *= rng.Range(1.8, 2.6)
		}
		for wi, w := range widths {
			start := end - w
			w1, err := u.Series.Data[kpi.RequestsPerSecond][1].Window(start, w)
			if err != nil {
				return nil, err
			}
			w2, _ := u.Series.Data[kpi.RequestsPerSecond][2].Window(start, w)
			sums[wi] += correlate.KCD(w1, w2, opts)
		}
	}
	t := &Table{
		Title:   "Figure 5 — effect of window length on the correlation score around a temporal fluctuation",
		Columns: []string{"window (points)", "window (seconds)", "mean KCD(D1, D2)"},
	}
	for wi, w := range widths {
		t.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%d", w*5), fmt.Sprintf("%.3f", sums[wi]/events))
	}
	t.Notes = append(t.Notes,
		"the score recovers as the window grows — the motivation for flexible time window observation (§III-C)")
	return t, nil
}
