package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/tracefile"
	"dbcatcher/internal/workload"
)

func TestParseProfile(t *testing.T) {
	cases := map[string]workload.Profile{
		"tencent-irregular": workload.TencentIrregular,
		"Tencent-Periodic":  workload.TencentPeriodic,
		"sysbench-i":        workload.SysbenchI,
		"sysbench-ii":       workload.SysbenchII,
		"tpcc-i":            workload.TPCCI,
		"TPCC-II":           workload.TPCCII,
	}
	for in, want := range cases {
		got, err := parseProfile(in)
		if err != nil || got != want {
			t.Errorf("parseProfile(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseProfile("nope"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestCheckRunFlags(t *testing.T) {
	for _, c := range []struct {
		dbs       int
		fromTrace bool
		speedup   float64
		ok        bool
	}{
		{5, false, 100, true},
		{2, false, 1, true},
		{0, true, 100, true}, // the trace sets -dbs
		{0, false, 100, false},
		{1, false, 100, false},
		{-3, false, 100, false},
		{5, false, 0, false},
		{5, false, -1, false},
		{5, false, math.NaN(), false},
		{5, true, 0, false},
	} {
		err := checkRunFlags(c.dbs, c.fromTrace, c.speedup)
		if (err == nil) != c.ok {
			t.Errorf("checkRunFlags(%d, %v, %v) = %v, want ok=%v", c.dbs, c.fromTrace, c.speedup, err, c.ok)
		}
	}
}

// -horizon bounds the input the daemon simulates or replays itself; a
// feeder that scrapes only external targets runs until the daemon stops.
func TestFeedEndPerInputMode(t *testing.T) {
	const horizon = 60
	for _, c := range []struct {
		mode       string
		exportAddr string
		targets    bool
		want       int
	}{
		{"simulated or trace", "", false, horizon},
		{"own exporter (-scrape-addr, -export-only)", ":9101", false, horizon},
		{"own exporter, scraping -scrape-targets", ":9101", true, horizon},
		{"external targets (-scrape-targets, -fleet-scrape-targets)", "", true, math.MaxInt},
	} {
		if got := feedEnd(horizon, c.exportAddr, c.targets); got != c.want {
			t.Errorf("%s: feedEnd = %d, want %d", c.mode, got, c.want)
		}
	}
}

func TestSplitTargets(t *testing.T) {
	cases := map[string][]string{
		"":        nil,
		"  ":      nil,
		"a":       {"a"},
		"a,b":     {"a", "b"},
		" a , b,": {"a", "b"},
	}
	for in, want := range cases {
		if got := splitTargets(in); !reflect.DeepEqual(got, want) {
			t.Errorf("splitTargets(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseSilencesStrict(t *testing.T) {
	got, err := parseSilences(" 1:60:80 , 0:10:5 ")
	if err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	want := []workload.Silence{{DB: 1, Start: 60, Length: 80}, {DB: 0, Start: 10, Length: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseSilences = %+v, want %+v", got, want)
	}
	if got, err := parseSilences("  "); err != nil || got != nil {
		t.Fatalf("blank spec: %v, %v", got, err)
	}
	// The old fmt.Sscanf path accepted trailing garbage ("1:2:3junk" parsed
	// as 1:2:3) and sign prefixes; every field is now digits-only.
	for _, bad := range []string{
		"1:2:3junk",                // trailing garbage on the last field
		"+1:2:3",                   // sign prefix
		"1:-2:3",                   // negative field
		"1:2",                      // too few fields
		"1:2:3:4",                  // too many fields
		"1::3",                     // empty field
		"abc",                      // not a spec at all
		"1:2:3,",                   // trailing comma leaves an empty spec
		"1: 2:3",                   // interior whitespace inside a field
		"1:2:99999999999999999999", // out of int range
	} {
		if _, err := parseSilences(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestApplyScrapeFaults(t *testing.T) {
	exp := scrape.NewExporter(scrape.NewFeed(2, 3))
	if err := applyScrapeFaults(exp, "", 3); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if err := applyScrapeFaults(exp, "0:hang, 1:5xx:10 ,2:flap", 3); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	for _, bad := range []string{
		"0",            // missing mode
		"0:hang:1:2",   // too many fields
		"x:hang",       // non-numeric db
		"3:hang",       // db out of range
		"0:explode",    // unknown mode
		"0:hang:-1",    // negative count
		"0:hang:zwölf", // non-numeric count
	} {
		if err := applyScrapeFaults(exp, bad, 3); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// A recorded trace must replay through the collector bit-identically to the
// simulation it captured — the -trace path's pipeline is then provably the
// same stream the live run saw.
func TestLoadTraceRoundTrip(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "rec", Databases: 3, Ticks: 40, Seed: 7, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := tracefile.WriteFile(path, u.Series); err != nil {
		t.Fatal(err)
	}
	series, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if series.Databases != 3 || series.Len() != 40 {
		t.Fatalf("trace shape %dx%d", series.Databases, series.Len())
	}
	ref, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.NewCollector(series, workload.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; ; tick++ {
		want, okW := ref.Next()
		have, okH := got.Next()
		if okW != okH {
			t.Fatalf("tick %d: streams end at different ticks", tick)
		}
		if !okW {
			break
		}
		for k := range want {
			for d := range want[k] {
				if math.Float64bits(want[k][d]) != math.Float64bits(have[k][d]) {
					t.Fatalf("tick %d cell [%d][%d]: %v != %v", tick, k, d, have[k][d], want[k][d])
				}
			}
		}
	}
}

func TestLoadTraceRejectsWrongShape(t *testing.T) {
	if _, err := loadTrace(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("loadTrace accepted a missing file")
	}
}

func TestParseFleetTargets(t *testing.T) {
	got, err := parseFleetTargets("http://a:1;http://b:2/db/0/kpis,http://b:2/db/1/kpis,http://b:2/db/2/kpis", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 3 {
		t.Fatalf("groups = %v", got)
	}
	if got[0][2] != "http://a:1/db/2/kpis" {
		t.Fatalf("base URL expansion = %q", got[0][2])
	}
	if got[1][0] != "http://b:2/db/0/kpis" {
		t.Fatalf("explicit list = %q", got[1][0])
	}
	for _, bad := range []string{
		"",               // no groups
		"http://a:1",     // 1 group for 2 units
		"http://a:1;;",   // empty group
		"http://a:1;x,y", // 2 targets, want 1 or 3
		"http://a:1;x;y", // 3 groups for 2 units
	} {
		if _, err := parseFleetTargets(bad, 2, 3); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}
