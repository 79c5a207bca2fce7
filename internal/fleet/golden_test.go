package fleet

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/scenario"
	"dbcatcher/internal/window"
)

var update = flag.Bool("update", false, "rewrite testdata/verdict_digests.txt from this run")

const digestFile = "testdata/verdict_digests.txt"

// digestVerdict writes v's decisions into h: tick, window, flagged
// database, expansions, gap cells, the abnormal flag, health and every
// database's state. MeanCorr and every other float stay out, so a digest
// moves only when a judgment does.
func digestVerdict(h hash.Hash, v *monitor.Verdict) {
	fmt.Fprintf(h, "%d %d %d %d %d %d %t %d", v.Tick, v.Start, v.Size, v.AbnormalDB, v.Expansions, v.GapCells, v.Abnormal, int(v.Health))
	for _, s := range v.States {
		fmt.Fprintf(h, " %d", int(s))
	}
	fmt.Fprintln(h)
}

// scenarioDigest streams one (scenario, seed) through monitor.Online with
// its promotions applied and digests every verdict.
func scenarioDigest(t *testing.T, sc scenario.Scenario, seed uint64) string {
	t.Helper()
	setup, err := sc.Build(scenario.Config{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Workers:    1,
	}, kpi.Count, setup.Series.Databases)
	if err != nil {
		t.Fatal(err)
	}
	col, err := cluster.NewCollector(setup.Series, setup.Plan)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for tick := 0; ; tick++ {
		for _, p := range setup.Promotions {
			if p.Tick == tick {
				if err := o.SetPrimary(p.NewPrimary); err != nil {
					t.Fatal(err)
				}
			}
		}
		sample, ok := col.Next()
		if !ok {
			break
		}
		v, err := o.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			digestVerdict(h, v)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// fleetDigest runs the 32-unit simulated fleet with collector faults of
// TestMonitorMatchesIndependentUnits through one Monitor and digests every
// unit's verdicts, round by round.
func fleetDigest(t *testing.T) string {
	t.Helper()
	pushers := make([]Pusher, testUnits)
	collectors := make([]*cluster.Collector, testUnits)
	for i := range pushers {
		pushers[i] = newTestOnline(t)
		c, err := cluster.NewCollector(simUnit(t, i).Series, unitPlan(i))
		if err != nil {
			t.Fatal(err)
		}
		collectors[i] = c
	}
	m, err := NewMonitor(pushers, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	samples := make([][][]float64, testUnits)
	for tick := 0; tick < testTicks; tick++ {
		for i, c := range collectors {
			sample, ok := c.Next()
			if !ok {
				t.Fatalf("unit %d collector exhausted at tick %d", i, tick)
			}
			samples[i] = sample
		}
		verdicts, err := m.Push(samples)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range verdicts {
			if v != nil {
				fmt.Fprintf(h, "unit %d: ", i)
				digestVerdict(h, v)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestVerdictDigests pins what the judge decides: one SHA-256 digest per
// (scenario, seed) for the five scenarios at seeds 1-10, and one for a
// 32-unit faulted fleet, compared with testdata/verdict_digests.txt. A
// change that moves a digest on purpose rewrites the file with
// `go test ./internal/fleet -run TestVerdictDigests -update` and names
// each moved digest, and why, in CHANGES.md.
//
// The digests are generated on linux/amd64, which CI runs. Other
// architectures may fuse a multiply and an add into one instruction
// (FMA), which rounds differently and can tip a threshold comparison, so
// there the test computes the digests but neither compares nor rewrites
// them.
func TestVerdictDigests(t *testing.T) {
	got := map[string]string{}
	for _, sc := range scenario.All() {
		for seed := uint64(1); seed <= 10; seed++ {
			got[fmt.Sprintf("%s/%d", sc.Name, seed)] = scenarioDigest(t, sc, seed)
		}
	}
	got["fleet-32"] = fleetDigest(t)
	if runtime.GOARCH != "amd64" {
		t.Skipf("verdict digests are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *update {
		var b strings.Builder
		b.WriteString("# SHA-256 of each verdict stream's decisions; see TestVerdictDigests.\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			name, digest, _ := strings.Cut(line, " ")
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: verdict digest %s, pinned %s", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned digest names no stream", name)
		}
	}
}
