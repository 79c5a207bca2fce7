package main

import (
	"flag"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
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

// parseRun parses args as the daemon's command line and runs the
// validator over it.
func parseRun(args ...string) (*fleetConfig, error) {
	fs := flag.NewFlagSet("dbcatcherd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return cfg, checkRunFlags(cfg)
}

// TestCheckRunFlags holds one accepted and one rejected command line per
// flag rule; a rejection must name the rule's flag.
func TestCheckRunFlags(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{Name: "rec", Databases: 3, Ticks: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "trace.csv")
	if err := tracefile.WriteFile(trace, u.Series); err != nil {
		t.Fatal(err)
	}
	const five = "http://h/0,http://h/1,http://h/2,http://h/3,http://h/4"
	for _, c := range []struct {
		rule   string
		args   []string
		reject string // "" = accepted; else a substring of the error
	}{
		{"defaults", nil, ""},

		{"-units bounds", []string{"-units", "4096"}, ""},
		{"-units bounds", []string{"-units", "4097"}, "-units 4097"},
		{"-units bounds", []string{"-units", "0"}, "-units must be at least 1"},

		{"single-unit only: -scrape-addr", []string{"-scrape-addr", "127.0.0.1:0"}, ""},
		{"single-unit only: -scrape-addr", []string{"-units", "2", "-scrape-addr", "127.0.0.1:0"}, "-scrape-addr is single-unit only"},
		{"single-unit only: -scrape-fault", []string{"-scrape-addr", ":0", "-scrape-fault", "0:hang"}, ""},
		{"single-unit only: -scrape-fault", []string{"-units", "2", "-scrape-fault", "0:hang"}, "-scrape-fault is single-unit only"},
		{"single-unit only: -export-only", []string{"-scrape-addr", ":0", "-export-only"}, ""},
		{"single-unit only: -export-only", []string{"-units", "2", "-export-only"}, "-export-only is single-unit only"},
		{"single-unit only: -relearn", []string{"-relearn"}, ""},
		{"single-unit only: -relearn", []string{"-units", "2", "-relearn"}, "-relearn is single-unit only"},
		{"single-unit only: -failover-tick", []string{"-failover-tick", "50"}, ""},
		{"single-unit only: -failover-tick", []string{"-units", "2", "-failover-tick", "50"}, "-failover-tick is single-unit only"},
		{"single-unit only: -trace", []string{"-trace", trace}, ""},
		{"single-unit only: -trace", []string{"-units", "2", "-trace", trace}, "-trace is single-unit only"},
		{"single-unit only: -trace-record", []string{"-trace-record", "x.csv"}, ""},
		{"single-unit only: -trace-record", []string{"-units", "2", "-trace-record", "x.csv"}, "-trace-record is single-unit only"},

		{"-incidents needs a fleet", []string{"-units", "2", "-incidents"}, ""},
		{"-incidents needs a fleet", []string{"-incidents"}, "-incidents requires -units > 1"},

		{"-export-only needs -scrape-addr", []string{"-export-only"}, "-export-only requires -scrape-addr"},
		{"-scrape-fault needs -scrape-addr", []string{"-scrape-fault", "0:hang"}, "-scrape-fault scripts this daemon's exporter"},

		{"-follow needs -data-dir", []string{"-follow", "http://p", "-data-dir", "d"}, ""},
		{"-follow needs -data-dir", []string{"-follow", "http://p"}, "-follow requires -data-dir"},
		{"-follow without -export-only", []string{"-follow", "http://p", "-data-dir", "d", "-scrape-addr", ":0", "-export-only"}, "-follow cannot be combined"},
		{"-follow without one unit's -scrape-targets", []string{"-units", "2", "-scrape-targets", "http://a;http://b", "-follow", "http://p", "-data-dir", "d"}, ""},
		{"-follow without one unit's -scrape-targets", []string{"-follow", "http://p", "-data-dir", "d", "-scrape-targets", "http://e"}, "-follow cannot be combined"},

		{"-trace without -trace-record", []string{"-trace", trace, "-trace-record", "x.csv"}, "-trace-record cannot be combined with -trace"},
		{"-trace without -failover-tick", []string{"-trace", trace, "-failover-tick", "5"}, "-failover-tick rewrites the simulation"},
		{"-trace reads its file", []string{"-trace", filepath.Join(t.TempDir(), "missing.csv")}, "missing.csv"},

		{"-dbs at least 2", []string{"-dbs", "2"}, ""},
		{"-dbs at least 2", []string{"-dbs", "1"}, "-dbs 1"},
		{"-dbs at least 2", []string{"-dbs", "0"}, "-dbs 0"}, // zero databases would panic the judge
		{"-dbs at least 2", []string{"-dbs", "-3"}, "-dbs -3"},
		{"-dbs at least 2", []string{"-dbs", "0", "-trace", trace}, ""}, // the trace sets -dbs
		{"-speedup positive", []string{"-speedup", "1"}, ""},
		{"-speedup positive", []string{"-speedup", "0"}, "-speedup 0"},
		{"-speedup positive", []string{"-speedup", "-1"}, "-speedup -1"},
		{"-speedup positive", []string{"-speedup", "NaN"}, "-speedup NaN"},
		{"-speedup positive", []string{"-trace", trace, "-speedup", "0"}, "-speedup 0"}, // a trace fixes -dbs, not -speedup

		{"-profile known", []string{"-profile", "tpcc-ii"}, ""},
		{"-profile known", []string{"-profile", "nope"}, "unknown profile"},
		{"-scrape-format known", []string{"-scrape-format", "prom"}, ""},
		{"-scrape-format known", []string{"-scrape-format", "xml"}, "unknown scrape format"},
		{"-fsync-policy known", []string{"-fsync-policy", "always"}, ""},
		{"-fsync-policy known", []string{"-fsync-policy", "sometimes"}, "unknown fsync policy"},
		{"-fault-silence strict", []string{"-fault-silence", "1:100:40"}, ""},
		{"-fault-silence strict", []string{"-fault-silence", "1:100"}, "bad silence"},

		{"target groups match -units", []string{"-units", "2", "-scrape-targets", "http://a;http://b"}, ""},
		{"target groups match -units", []string{"-units", "2", "-scrape-targets", "http://a"}, "1 unit groups for 2 units"},
		{"one base URL or -dbs URLs", []string{"-scrape-targets", five}, ""},
		{"one base URL or -dbs URLs", []string{"-scrape-targets", "http://h/0,http://h/1,http://h/2"}, "lists 3 targets"},

		{"external targets: no collector faults", []string{"-scrape-addr", ":0", "-scrape-targets", "http://e", "-fault-drop-cell", "0.5"}, ""},
		{"external targets: no collector faults", []string{"-scrape-targets", "http://e", "-fault-drop-cell", "0.5"}, "collector fault flags"},
		{"external targets: no collector faults", []string{"-units", "2", "-scrape-targets", "http://e;http://e", "-fault-silence", "0:1:2"}, "collector fault flags"},
		{"external targets: no -trace", []string{"-scrape-addr", ":0", "-scrape-targets", "http://e", "-trace", trace}, ""},
		{"external targets: no -trace", []string{"-scrape-targets", "http://e", "-trace", trace}, "-trace cannot be combined with -scrape-targets"},
		{"external targets: no -trace-record", []string{"-scrape-addr", ":0", "-scrape-targets", "http://e", "-trace-record", "x.csv"}, ""},
		{"external targets: no -trace-record", []string{"-scrape-targets", "http://e", "-trace-record", "x.csv"}, "-trace-record cannot be combined with -scrape-targets"},
		{"-relearn without -scrape-targets", []string{"-scrape-addr", ":0", "-relearn"}, ""},
		{"-relearn without -scrape-targets", []string{"-scrape-targets", "http://e", "-relearn"}, "-relearn cannot be combined with -scrape-targets"},
		{"-relearn without -scrape-targets", []string{"-scrape-addr", ":0", "-scrape-targets", "http://e", "-relearn"}, "-relearn cannot be combined with -scrape-targets"},
	} {
		_, err := parseRun(c.args...)
		switch {
		case c.reject == "" && err != nil:
			t.Errorf("%s: %q rejected: %v", c.rule, c.args, err)
		case c.reject != "" && err == nil:
			t.Errorf("%s: %q accepted", c.rule, c.args)
		case c.reject != "" && !strings.Contains(err.Error(), c.reject):
			t.Errorf("%s: %q rejected for %q, want %q", c.rule, c.args, err, c.reject)
		}
	}
}

// A -trace fixes -dbs and -horizon; a base-URL target group names the
// exporter's /kpis for every database: one endpoint.
func TestCheckRunFlagsResolves(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{Name: "rec", Databases: 3, Ticks: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "trace.csv")
	if err := tracefile.WriteFile(trace, u.Series); err != nil {
		t.Fatal(err)
	}
	cfg, err := parseRun("-trace", trace, "-dbs", "9", "-horizon", "5", "-scrape-addr", ":0", "-scrape-targets", "http://e/")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.dbs != 3 || cfg.horizon != 40 || cfg.series == nil {
		t.Fatalf("trace resolved to %d dbs, %d ticks", cfg.dbs, cfg.horizon)
	}
	want := [][]string{{"http://e/kpis", "http://e/kpis", "http://e/kpis"}}
	if !reflect.DeepEqual(cfg.targets, want) {
		t.Fatalf("targets = %v, want %v", cfg.targets, want)
	}
}

// A unit that only scrapes external targets has no input: no series,
// labels, or collector. With its own exporter it simulates as usual.
func TestBuildInputExternalTargetsHaveNone(t *testing.T) {
	for _, args := range [][]string{
		{"-scrape-targets", "http://e"},
		{"-units", "2", "-scrape-targets", "http://e;http://f"},
	} {
		cfg, err := parseRun(append(args, "-horizon", "60")...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.units; i++ {
			in, err := buildInput(cfg, i)
			if err != nil || in != (unitInput{}) {
				t.Fatalf("%q unit %d: input %+v, %v; want none", args, i, in, err)
			}
		}
	}
	cfg, err := parseRun("-scrape-addr", ":0", "-scrape-targets", "http://e", "-horizon", "60")
	if err != nil {
		t.Fatal(err)
	}
	if in, err := buildInput(cfg, 0); err != nil || in.collector == nil || in.series.Len() != 60 {
		t.Fatalf("exporting unit: input %+v, %v; want a 60-tick simulation", in, err)
	}
}

// -horizon bounds the input the daemon simulates or replays itself; a
// unit that scrapes only external targets has none here, and its feeder
// runs until the daemon stops.
func TestFeedEndPerInputMode(t *testing.T) {
	for _, c := range []struct {
		mode     string
		args     []string
		external bool
	}{
		{"simulated", nil, false},
		{"own exporter (-scrape-addr, -export-only)", []string{"-scrape-addr", ":9101", "-export-only"}, false},
		{"own exporter, scraping -scrape-targets", []string{"-scrape-addr", ":9101", "-scrape-targets", "http://e"}, false},
		{"external targets (-scrape-targets without -scrape-addr)", []string{"-scrape-targets", "http://e"}, true},
	} {
		cfg, err := parseRun(c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.mode, err)
		}
		if got := cfg.external(); got != c.external {
			t.Errorf("%s: external() = %v, want %v", c.mode, got, c.external)
		}
	}
}

// Repeated log lines are kept to the first ten and then every hundredth,
// whatever the unit count.
func TestLogSample(t *testing.T) {
	var n logSample
	var logged []int
	for i := 1; i <= 350; i++ {
		if n.next() {
			logged = append(logged, i)
		}
	}
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 200, 300}
	if !reflect.DeepEqual(logged, want) {
		t.Fatalf("logged occurrences %v, want %v", logged, want)
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
	if got[0][2] != "http://a:1/kpis" {
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
