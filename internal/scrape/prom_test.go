package scrape

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/workload"
)

func TestFormatRoundTrip(t *testing.T) {
	for f := FormatJSON; f <= FormatProm; f++ {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFormat("protobuf"); err == nil {
		t.Fatal("ParseFormat accepted an unknown format")
	}
}

// The exposition must round-trip every vector bit for bit, including NaN
// gaps, subnormals, and extreme exponents — the same bar the JSON payload
// meets.
func TestPromRoundTrip(t *testing.T) {
	in := Payload{Tick: 42, DB: 3, Values: []float64{
		1.5, -3e-9, 4e12, math.NaN(), 0, -0.0, math.SmallestNonzeroFloat64,
		math.MaxFloat64, 0.1, 1.0 / 3.0,
	}}
	body := AppendBody(nil, &in, FormatProm)
	var out Payload
	if err := ParseBody(body, &out, FormatProm); err != nil {
		t.Fatalf("ParseBody: %v\nbody:\n%s", err, body)
	}
	if out.Tick != in.Tick || out.DB != in.DB || len(out.Values) != len(in.Values) {
		t.Fatalf("round trip shape: got %+v", out)
	}
	for i := range in.Values {
		if math.Float64bits(out.Values[i]) != math.Float64bits(in.Values[i]) {
			t.Fatalf("value %d: %v -> %v", i, in.Values[i], out.Values[i])
		}
	}
}

// Comments and blank lines are the only non-sample content the parser
// tolerates.
func TestPromParseSkipsComments(t *testing.T) {
	body := "# HELP dbcatcher_kpi a kpi\n\n" +
		"dbcatcher_tick{db=\"1\"} 7\n" +
		"# trailing comment without newline\n" +
		"dbcatcher_kpi{db=\"1\",kpi=\"0\"} 2.5\n" +
		"# unterminated comment"
	var p Payload
	if err := ParseBody([]byte(body), &p, FormatProm); err != nil {
		t.Fatalf("ParseBody: %v", err)
	}
	if p.Tick != 7 || p.DB != 1 || len(p.Values) != 1 || p.Values[0] != 2.5 {
		t.Fatalf("parsed %+v", p)
	}
}

// The malformed-exposition corpus: every entry must be rejected loudly —
// no panics, no silently absorbed garbage.
func TestPromParseRejectsCorpus(t *testing.T) {
	valid := string(AppendBody(nil, &Payload{Tick: 3, DB: 0, Values: []float64{1, 2}}, FormatProm))
	cases := map[string]string{
		"empty":            "",
		"comments only":    "# nothing here\n",
		"garbage":          "<<<this is not a payload at all>>>",
		"missing tick":     `dbcatcher_kpi{db="0",kpi="0"} 1` + "\n",
		"no kpi series":    `dbcatcher_tick{db="0"} 3` + "\n",
		"duplicate tick":   valid + `dbcatcher_tick{db="0"} 4` + "\n",
		"duplicate series": valid + `dbcatcher_kpi{db="0",kpi="1"} 9` + "\n",
		"out of order":     "dbcatcher_tick{db=\"0\"} 3\ndbcatcher_kpi{db=\"0\",kpi=\"1\"} 1\n",
		"mixed databases":  "dbcatcher_tick{db=\"0\"} 3\ndbcatcher_kpi{db=\"1\",kpi=\"0\"} 1\n",
		"unknown series":   valid + `node_load1{db="0"} 0.5` + "\n",
		"bare metric":      "dbcatcher_tick 3\n",
		"positive inf":     "dbcatcher_tick{db=\"0\"} 3\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} +Inf\n",
		"negative inf":     "dbcatcher_tick{db=\"0\"} 3\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} -Inf\n",
		"word inf":         "dbcatcher_tick{db=\"0\"} 3\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} Inf\n",
		"bad number":       "dbcatcher_tick{db=\"0\"} 3\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} 1..5\n",
		"timestamp":        "dbcatcher_tick{db=\"0\"} 3\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} 1 1700000000\n",
		"float tick":       "dbcatcher_tick{db=\"0\"} 3.5\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} 1\n",
		"negative db":      "dbcatcher_tick{db=\"-1\"} 3\ndbcatcher_kpi{db=\"-1\",kpi=\"0\"} 1\n",
		"label overflow":   "dbcatcher_tick{db=\"99999999999999999999\"} 3\n",
		"unquoted label":   "dbcatcher_tick{db=0} 3\n",
		"missing newline":  strings.TrimSuffix(valid, "\n"),
		"crlf":             "dbcatcher_tick{db=\"0\"} 3\r\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} 1\r\n",
		"json body":        string(AppendBody(nil, &Payload{Tick: 3, DB: 0, Values: []float64{1, 2}}, FormatJSON)),
		"oversized":        valid + strings.Repeat("x", maxBodySize),
	}
	for name, body := range cases {
		var p Payload
		if err := ParseBody([]byte(body), &p, FormatProm); err == nil {
			t.Errorf("%s: ParseBody accepted %q", name, body)
		}
	}
}

// Mid-metric truncation: no proper prefix of a healthy exposition may parse
// to the full vector — a cut body is either rejected outright or comes up
// short and is then rejected by the scraper's KPI-count check.
func TestPromParseTruncation(t *testing.T) {
	full := AppendBody(nil, &Payload{Tick: 9, DB: 2, Values: []float64{1.25, math.NaN(), -7e3}}, FormatProm)
	var ref Payload
	if err := ParseBody(full, &ref, FormatProm); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		var p Payload
		if err := ParseBody(full[:cut], &p, FormatProm); err == nil && len(p.Values) >= len(ref.Values) {
			t.Fatalf("prefix of %d/%d bytes parsed to a full vector", cut, len(full))
		}
	}
}

// The Prometheus path is held to the same acceptance bar as the JSON path:
// on a healthy feed, scraping the exposition format must yield verdicts
// bit-identical to both the JSON scrape path and the in-process collector.
func TestScrapePromBitIdenticalToJSON(t *testing.T) {
	const ticks = 240
	u := simulateUnit(t, ticks, 29)
	want := runInProcess(t, u)

	dbs := u.Series.Databases
	for f := FormatJSON; f <= FormatProm; f++ {
		p := newTestPipe(t, u.Series.KPIs, dbs, func(cfg *Config) { cfg.Format = f })
		judge := newChaosOnline(t, dbs)
		c, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
		if err != nil {
			t.Fatal(err)
		}
		var got []*monitor.Verdict
		for tick := 0; ; tick++ {
			sample, ok := c.Next()
			if !ok {
				break
			}
			p.publish(t, tick, sample)
			assembled, rep := p.round(t)
			if rep.Missing != 0 || rep.Skipped != 0 || rep.Late {
				t.Fatalf("%v tick %d: healthy round incomplete: %+v", f, tick, rep)
			}
			v, err := judge.Push(assembled)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				got = append(got, v)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%v emitted %d verdicts, in-process %d", f, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%v verdict %d differs:\ngot:  %+v\nwant: %+v", f, i, got[i], want[i])
			}
		}
	}
}

// Satellite regression: a target that switches exposition format mid-flight
// must degrade (NaN column) without wedging the round, and must recover the
// moment it speaks the negotiated format again. Exercised in both
// directions.
func TestScraperFormatSwitchDegradesTarget(t *testing.T) {
	for f := FormatJSON; f <= FormatProm; f++ {
		p := newTestPipe(t, 3, 2, func(cfg *Config) {
			cfg.Format = f
			// Keep the breaker out of the way: this test watches the
			// parse-reject path, not breaker hysteresis.
			cfg.BreakerFailures = 5
		})
		for tick := 0; tick < 2; tick++ {
			p.publish(t, tick, sampleFor(3, 2, tick))
			_, rep := p.round(t)
			if rep.Missing != 0 {
				t.Fatalf("%v tick %d: healthy round missing %d", f, tick, rep.Missing)
			}
		}
		// db 1 flips to the other exposition format until cleared (a
		// bounded Count would be burned by in-round retries).
		if err := p.exp.SetFault(1, Fault{Mode: FaultFormatFlip}); err != nil {
			t.Fatal(err)
		}
		for tick := 2; tick < 4; tick++ {
			p.publish(t, tick, sampleFor(3, 2, tick))
			sample, rep := p.round(t)
			if rep.Late {
				t.Fatalf("%v tick %d: format switch wedged the round", f, tick)
			}
			if rep.Arrived != 1 || rep.Missing != 1 {
				t.Fatalf("%v tick %d: report %+v, want 1 arrived 1 missing", f, tick, rep)
			}
			for k := range sample {
				if !math.IsNaN(sample[k][1]) {
					t.Fatalf("%v tick %d: flipped target's column not NaN", f, tick)
				}
				if math.IsNaN(sample[k][0]) {
					t.Fatalf("%v tick %d: healthy target's column is NaN", f, tick)
				}
			}
		}
		// Fault cleared: the target recovers in place.
		if err := p.exp.SetFault(1, Fault{}); err != nil {
			t.Fatal(err)
		}
		p.publish(t, 4, sampleFor(3, 2, 4))
		_, rep := p.round(t)
		if rep.Arrived != 2 || rep.Missing != 0 {
			t.Fatalf("%v recovery report %+v", f, rep)
		}
		h := p.s.Health()
		if h.Targets[1].Failures == 0 || h.Targets[1].LastError != "" {
			t.Fatalf("%v target health %+v", f, h.Targets[1])
		}
	}
}

// A stale fault installed under one format must serve the frozen sample in
// whatever format each request negotiates (the freeze captures values, not
// rendered bytes), and the staleness mark-down must fire identically.
func TestPromStaleFault(t *testing.T) {
	p := newTestPipe(t, 2, 2, func(cfg *Config) { cfg.Format = FormatProm })
	p.publish(t, 0, sampleFor(2, 2, 0))
	if _, rep := p.round(t); rep.Missing != 0 {
		t.Fatalf("healthy round missing %d", rep.Missing)
	}
	if err := p.exp.SetFault(1, Fault{Mode: FaultStale}); err != nil {
		t.Fatal(err)
	}
	// StaleRounds is 2 in the test config: the first frozen re-serve is
	// tolerated, the second is dropped.
	sawDrop := false
	for tick := 1; tick <= 3; tick++ {
		p.publish(t, tick, sampleFor(2, 2, tick))
		_, rep := p.round(t)
		if rep.Late {
			t.Fatalf("tick %d: stale fault wedged the round", tick)
		}
		if rep.Missing > 0 {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Fatal("stale prom target was never marked down")
	}
	if h := p.s.Health(); h.Targets[1].StaleDrops == 0 {
		t.Fatalf("target health %+v", h.Targets[1])
	}
}

func TestScraperConfigRejectsBadFormats(t *testing.T) {
	for _, f := range []Format{Format(-1), Format(7)} {
		if _, err := New(Config{Targets: []string{"http://a", "http://b"}, KPIs: 2, Format: f}); err == nil {
			t.Errorf("New accepted format %d", int(f))
		}
	}
}
