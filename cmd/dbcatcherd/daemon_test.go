package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/store"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// The daemon logs every boot step and abnormal verdict; keep the test
// output to the failures unless -v asks for more.
func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Verbose() {
		log.SetOutput(io.Discard)
	}
	os.Exit(m.Run())
}

// startDaemon runs runFleet with the command line args on a loopback
// listener and returns the API's base URL and a stop function that
// cancels the run and waits for runFleet to return (also at cleanup).
func startDaemon(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	cfg, err := parseRun(args...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan error, 1)
	go func() { returned <- runFleet(ctx, ln, cfg) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case err := <-returned:
			if err != nil {
				t.Errorf("runFleet: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("runFleet did not return after its context was cancelled")
		}
	}
	t.Cleanup(stop)
	return "http://" + ln.Addr().String(), stop
}

// getJSON decodes the JSON body of a 200 GET into out.
func getJSON(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// waitFor polls cond until it holds, failing the test after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// unitStatus is the part of /api/status these tests read.
type unitStatus struct {
	TicksIngested int `json:"ticksIngested"`
	Persistence   struct {
		ResumeTick int `json:"resumeTick"`
	} `json:"persistence"`
}

// servedVerdict is a verdict as the API serves it.
type servedVerdict struct {
	Tick       int      `json:"tick"`
	Start      int      `json:"start"`
	Size       int      `json:"size"`
	Abnormal   bool     `json:"abnormal"`
	AbnormalDB int      `json:"abnormalDb"`
	States     []string `json:"states"`
	Expansions int      `json:"expansions"`
	Health     string   `json:"health"`
	GapCells   int      `json:"gapCells"`
}

func served(v *monitor.Verdict) servedVerdict {
	states := make([]string, len(v.States))
	for i, s := range v.States {
		states[i] = s.String()
	}
	return servedVerdict{
		Tick: v.Tick, Start: v.Start, Size: v.Size,
		Abnormal: v.Abnormal, AbnormalDB: v.AbnormalDB,
		States: states, Expansions: v.Expansions,
		Health: v.Health.String(), GapCells: v.GapCells,
	}
}

// bareJudge is what the daemon's unit 0 must judge: a monitor.Online fed
// by the simulation (seed), its injected anomalies (seed+1, seed+2) and a
// collector applying the fault plan (seed+3), built without the daemon.
func bareJudge(t *testing.T, seed uint64, ticks int, ratio float64, plan workload.FaultPlan) []servedVerdict {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{
		Name: "bare", Databases: 5, Ticks: ticks, Profile: workload.TencentIrregular, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
		Ticks: ticks, Databases: 5, TargetRatio: ratio,
	}, mathx.NewRNG(seed+1))
	if _, err := anomaly.Inject(u, events, mathx.NewRNG(seed+2)); err != nil {
		t.Fatal(err)
	}
	plan.Seed = seed + 3
	col, err := cluster.NewCollector(u.Series, plan)
	if err != nil {
		t.Fatal(err)
	}
	o, err := monitor.NewOnline(detect.Config{Thresholds: window.DefaultThresholds(kpi.Count)}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	var out []servedVerdict
	for {
		sample, ok := col.Next()
		if !ok {
			return out
		}
		v, err := o.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			out = append(out, served(v))
		}
	}
}

// A one-unit daemon judges exactly what a bare judge judges over the same
// simulated, anomaly-injected, fault-ridden input.
func TestOneUnitJudgesWhatABareJudgeJudges(t *testing.T) {
	url, _ := startDaemon(t, "-seed", "7", "-horizon", "400", "-speedup", "1e6",
		"-anomaly-ratio", "0.05", "-fault-drop-cell", "0.02", "-fault-silence", "1:100:40")
	waitFor(t, "the 400-tick replay", func() bool {
		var st unitStatus
		getJSON(t, url+"/api/status", &st)
		return st.TicksIngested == 400
	})
	var got []servedVerdict
	getJSON(t, url+"/api/verdicts?limit=128", &got)
	want := bareJudge(t, 7, 400, 0.05, workload.FaultPlan{
		DropCellRate: 0.02, Silences: []workload.Silence{{DB: 1, Start: 100, Length: 40}},
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("daemon served %d verdicts, the bare judge judged %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
	abnormal, degraded := 0, 0
	for _, v := range want {
		if v.Abnormal {
			abnormal++
		}
		if v.Health != detect.HealthOK.String() {
			degraded++
		}
	}
	if abnormal == 0 || degraded == 0 {
		t.Fatalf("%d abnormal and %d degraded verdicts: the input exercised too little", abnormal, degraded)
	}
}

// A one-unit daemon stopped halfway resumes from its snapshot: the second
// run serves the bare judge's verdicts over the whole input, each once.
func TestOneUnitResumes(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-seed", "7", "-horizon", "800", "-speedup", "4000", "-anomaly-ratio", "0.05", "-data-dir", dir}
	url, stop := startDaemon(t, args...)
	waitFor(t, "400 ticks of the first run", func() bool {
		var st unitStatus
		getJSON(t, url+"/api/status", &st)
		return st.TicksIngested >= 400
	})
	stop()

	url, _ = startDaemon(t, append(args, "-speedup", "1e6")...)
	var st unitStatus
	waitFor(t, "the second run's replay", func() bool {
		getJSON(t, url+"/api/status", &st)
		return st.TicksIngested == 800
	})
	if st.Persistence.ResumeTick <= 0 || st.Persistence.ResumeTick >= 800 {
		t.Fatalf("resumeTick %d: the second run did not resume mid-stream", st.Persistence.ResumeTick)
	}
	var got []servedVerdict
	getJSON(t, url+"/api/verdicts?limit=128", &got)
	for i := 1; i < len(got); i++ {
		if got[i].Tick <= got[i-1].Tick {
			t.Fatalf("verdict ticks %d then %d: served twice or out of order", got[i-1].Tick, got[i].Tick)
		}
	}
	if want := bareJudge(t, 7, 800, 0.05, workload.FaultPlan{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed daemon served %d verdicts, the bare judge judged %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
}

// walRecords opens a stopped daemon's data dir and returns every record
// its WAL holds.
func walRecords(t *testing.T, dir string) []store.SeqRecord {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return rec.Records
}

// A one-unit daemon journals each verdict as one RecUnitVerdict for unit
// 0: no RecVerdict, no per-verdict RecCounters.
func TestOneUnitJournalsOneRecordPerVerdict(t *testing.T) {
	dir := t.TempDir()
	url, stop := startDaemon(t, "-seed", "7", "-horizon", "400", "-speedup", "1e6",
		"-anomaly-ratio", "0.05", "-data-dir", dir)
	waitFor(t, "the 400-tick replay", func() bool {
		var st unitStatus
		getJSON(t, url+"/api/status", &st)
		return st.TicksIngested == 400
	})
	var got []servedVerdict
	getJSON(t, url+"/api/verdicts?limit=128", &got)
	stop()
	if len(got) == 0 {
		t.Fatal("the daemon served no verdicts")
	}
	var journaled []int
	for _, r := range walRecords(t, dir) {
		switch r.Type {
		case store.RecUnitVerdict:
			if r.UnitVerdict.Unit != 0 {
				t.Fatalf("record %d journals unit %d", r.Seq, r.UnitVerdict.Unit)
			}
			journaled = append(journaled, r.UnitVerdict.Verdict.Tick)
		case store.RecVerdict, store.RecCounters:
			t.Fatalf("record %d has legacy type %d", r.Seq, r.Type)
		}
	}
	served := make([]int, len(got))
	for i, v := range got {
		served[i] = v.Tick
	}
	if !reflect.DeepEqual(journaled, served) {
		t.Fatalf("journaled verdict ticks %v, served %v", journaled, served)
	}
}

// copyDir copies the regular files of src into a new directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// A one-unit data dir written by an older build (RecVerdict and RecCounters
// records, a full-ring snapshot with a "counters" key, stopped near tick
// 400 of the run below) opens, serves its verdicts as unit 0's history and
// resumes bit-identically: the served stream is the bare judge's, each
// verdict once.
func TestLegacyOneUnitDataDirResumes(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "legacy-unit"))
	var legacy int
	for _, r := range walRecords(t, dir) {
		if r.Type == store.RecVerdict {
			legacy++
		}
	}
	if legacy == 0 {
		t.Fatal("the legacy data dir holds no RecVerdict records")
	}
	url, _ := startDaemon(t, "-seed", "7", "-horizon", "800", "-speedup", "1e6", "-anomaly-ratio", "0.05", "-data-dir", dir)
	var st unitStatus
	waitFor(t, "the resumed replay", func() bool {
		getJSON(t, url+"/api/status", &st)
		return st.TicksIngested == 800
	})
	if st.Persistence.ResumeTick <= 0 || st.Persistence.ResumeTick >= 800 {
		t.Fatalf("resumeTick %d: the legacy snapshot was not resumed", st.Persistence.ResumeTick)
	}
	var got []servedVerdict
	getJSON(t, url+"/api/verdicts?limit=128", &got)
	for i := 1; i < len(got); i++ {
		if got[i].Tick <= got[i-1].Tick {
			t.Fatalf("verdict ticks %d then %d: served twice or out of order", got[i-1].Tick, got[i].Tick)
		}
	}
	if want := bareJudge(t, 7, 800, 0.05, workload.FaultPlan{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed daemon served %d verdicts, the bare judge judged %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
}

// A restarted fleet stamps the epoch it adopts at boot with the newest
// verdict tick any unit journaled before it.
func TestFleetEpochRecordsDurableTick(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-units", "2", "-horizon", "300", "-speedup", "1e6", "-data-dir", dir}
	for run := 0; run < 2; run++ {
		url, stop := startDaemon(t, args...)
		waitFor(t, "the 300-tick replay", func() bool {
			var st fleetStatus
			getJSON(t, url+"/api/fleet/status", &st)
			return st.Totals.TicksIngested == 2*300
		})
		stop()
	}
	newest, epochs := 0, 0
	for _, r := range walRecords(t, dir) {
		switch r.Type {
		case store.RecUnitVerdict:
			newest = max(newest, r.UnitVerdict.Verdict.Tick)
		case store.RecEpoch:
			epochs++
			if epochs == 2 && (newest == 0 || r.Epoch.Tick != newest) {
				t.Fatalf("the restart adopted epoch %d at tick %d; the newest journaled verdict is at tick %d", r.Epoch.Epoch, r.Epoch.Tick, newest)
			}
		}
	}
	if epochs != 2 {
		t.Fatalf("%d epoch records, want one per boot", epochs)
	}
}

// exporter serves a simulated unit's KPIs over HTTP, publishing the next
// tick every millisecond (looping the series) until the test ends.
func exporter(t *testing.T) string {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{Name: "exp", Databases: 5, Ticks: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	feed := scrape.NewFeed(kpi.Count, 5)
	srv := httptest.NewServer(scrape.NewExporter(feed).Handler())
	quit := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		var col *cluster.Collector
		for tick := 0; ; tick++ {
			if tick%200 == 0 {
				if col, err = cluster.NewCollector(u.Series, workload.FaultPlan{}); err != nil {
					t.Error(err)
					return
				}
			}
			sample, _ := col.Next()
			if err := feed.Publish(tick, sample); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	t.Cleanup(func() {
		close(quit)
		<-stopped
		srv.Close()
	})
	return srv.URL
}

// A daemon whose units only scrape external targets judges past -horizon,
// which bounds simulated and trace input only.
func TestExternalTargetsJudgePastHorizon(t *testing.T) {
	newestTick := func(t *testing.T, url string, units int) int {
		var page []servedVerdict
		if units == 1 {
			getJSON(t, url+"/api/verdicts?limit=1", &page)
		} else {
			var env struct {
				Verdicts []servedVerdict `json:"verdicts"`
			}
			getJSON(t, url+"/api/fleet/verdicts?unit=1&limit=1", &env)
			page = env.Verdicts
		}
		if len(page) == 0 {
			return -1
		}
		return page[0].Tick
	}
	for _, units := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d units", units), func(t *testing.T) {
			exp := exporter(t)
			spec := exp
			if units == 2 {
				spec += ";" + exp
			}
			url, _ := startDaemon(t, "-units", fmt.Sprint(units), "-scrape-targets", spec, "-horizon", "10", "-speedup", "2000")
			waitFor(t, "a verdict past tick 10", func() bool { return newestTick(t, url, units) > 10 })
		})
	}
}

// fleetStatus is the part of /api/fleet/status these tests read.
type fleetStatus struct {
	Totals struct {
		TicksIngested int `json:"ticksIngested"`
	} `json:"totals"`
	Persistence struct {
		IncidentRounds int `json:"incidentRounds"`
	} `json:"persistence"`
}

// incidentTotals is the part of /api/incidents a restart must preserve.
type incidentTotals struct {
	Total  int             `json:"total"`
	Status json.RawMessage `json:"status"`
}

// A restarted fleet serves its first run's incident totals at boot and
// re-journals nothing while detection replays up to its old horizon.
func TestFleetIncidentsSurviveRestart(t *testing.T) {
	args := []string{"-units", "2", "-incidents", "-anomaly-ratio", "0.12", "-horizon", "600",
		"-speedup", "1e6", "-data-dir", t.TempDir()}
	replayed := func(url string) {
		waitFor(t, "the 600-tick replay", func() bool {
			var st fleetStatus
			getJSON(t, url+"/api/fleet/status", &st)
			return st.Totals.TicksIngested == 2*600
		})
	}
	url, stop := startDaemon(t, args...)
	replayed(url)
	var first incidentTotals
	getJSON(t, url+"/api/incidents", &first)
	if first.Total == 0 {
		t.Fatal("the first run found no incidents: the input exercised nothing")
	}
	stop()

	url, _ = startDaemon(t, args...)
	var boot incidentTotals
	getJSON(t, url+"/api/incidents", &boot)
	if !reflect.DeepEqual(boot, first) {
		t.Fatalf("incidents at boot %s (total %d), first run %s (total %d)", boot.Status, boot.Total, first.Status, first.Total)
	}
	replayed(url)
	var st fleetStatus
	getJSON(t, url+"/api/fleet/status", &st)
	if st.Persistence.IncidentRounds != 0 {
		t.Fatalf("catch-up journaled %d incident rounds", st.Persistence.IncidentRounds)
	}
}
