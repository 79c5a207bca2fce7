package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// verdictJSON is the verdict routes' documented wire shape. Encoded by
// encoding/json it is the reference the verdict log must match byte for
// byte.
type verdictJSON struct {
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

func toVerdictJSON(v *monitor.Verdict) verdictJSON {
	states := make([]string, len(v.States))
	for i, st := range v.States {
		states[i] = st.String()
	}
	return verdictJSON{
		Tick: v.Tick, Start: v.Start, Size: v.Size,
		Abnormal: v.Abnormal, AbnormalDB: v.AbnormalDB,
		States: states, Expansions: v.Expansions,
		Health: v.Health.String(), GapCells: v.GapCells,
	}
}

// refHistory is the reference model of a Server's verdict history: a
// bounded []verdictJSON with RestoreHistory's dedupe horizon, paged by a
// suffix cut and served through encoding/json.
type refHistory struct {
	max             int
	restoredThrough int
	verdicts        []verdictJSON
}

func newRefHistory(max int) *refHistory { return &refHistory{max: max, restoredThrough: -1} }

func (h *refHistory) restore(vs []monitor.Verdict) {
	for i := range vs {
		h.verdicts = append(h.verdicts, toVerdictJSON(&vs[i]))
		if vs[i].Tick > h.restoredThrough {
			h.restoredThrough = vs[i].Tick
		}
	}
	h.trim()
}

func (h *refHistory) push(v *monitor.Verdict) {
	if v != nil && v.Tick > h.restoredThrough {
		h.verdicts = append(h.verdicts, toVerdictJSON(v))
		h.trim()
	}
}

func (h *refHistory) trim() {
	if len(h.verdicts) > h.max {
		h.verdicts = h.verdicts[len(h.verdicts)-h.max:]
	}
}

// page copies out the newest limit verdicts with Tick > since (since < 0:
// unfiltered), limit clamped to the bound.
func (h *refHistory) page(limit, since int) []verdictJSON {
	if limit > h.max {
		limit = h.max
	}
	vs := h.verdicts
	if since >= 0 {
		lo := sort.Search(len(vs), func(i int) bool { return vs[i].Tick > since })
		vs = vs[lo:]
	}
	if len(vs) > limit {
		vs = vs[len(vs)-limit:]
	}
	out := make([]verdictJSON, len(vs))
	copy(out, vs)
	return out
}

func encodeRef(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (h *refHistory) unitBody(t *testing.T, limit, since int) []byte {
	return encodeRef(t, h.page(limit, since))
}

func (h *refHistory) fleetBody(t *testing.T, unit int, name string, limit, since int) []byte {
	vs := h.page(limit, since)
	return encodeRef(t, map[string]interface{}{
		"unit": unit, "name": name, "count": len(vs), "verdicts": vs,
	})
}

// serve runs one GET through h and returns the recorded response.
func serve(h http.Handler, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

// checkAgainstRef compares every verdict body both routes serve for s
// (unit index unit of fleet) with the reference encoder, over limits and
// since values around every boundary of the retained ticks, plus the
// history counters the status documents read.
func checkAgainstRef(t *testing.T, step string, s *Server, unitH, fleetH http.Handler, unit int, ref *refHistory) {
	t.Helper()
	limits := []int{-1, 1, 16, ref.max, ref.max + 1}
	sinces := []int{-1, 0}
	if n := len(ref.verdicts); n > 0 {
		first, mid, last := ref.verdicts[0].Tick, ref.verdicts[n/2].Tick, ref.verdicts[n-1].Tick
		for _, tick := range []int{first, mid, last} {
			for _, d := range []int{-1, 0, 1} {
				if tick+d >= 0 {
					sinces = append(sinces, tick+d)
				}
			}
		}
	}
	for _, limit := range limits {
		for _, since := range sinces {
			query, eff := "", 50
			if limit >= 0 {
				query, eff = "&limit="+strconv.Itoa(limit), limit
			}
			if since >= 0 {
				query += "&since=" + strconv.Itoa(since)
			}
			rec := serve(unitH, "/api/verdicts?"+query)
			if want := ref.unitBody(t, eff, since); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: unit %d /api/verdicts?%s: %d\n got %s\nwant %s", step, unit, query, rec.Code, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s: Content-Type %q", step, ct)
			}
			rec = serve(fleetH, "/api/fleet/verdicts?unit="+strconv.Itoa(unit)+query)
			if want := ref.fleetBody(t, unit, s.unitName, eff, since); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: /api/fleet/verdicts?unit=%d%s: %d\n got %s\nwant %s", step, unit, query, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}

	abnormal, last := 0, verdictJSON{Tick: -1}
	for _, v := range ref.verdicts {
		if v.Abnormal {
			abnormal++
		}
		last = v
	}
	row := s.fleetSummary(unit)
	if row.Verdicts != len(ref.verdicts) || row.AbnormalVerdicts != abnormal || row.LastVerdictTick != last.Tick {
		t.Fatalf("%s: fleet row verdicts/abnormal/last = %d/%d/%d, want %d/%d/%d", step,
			row.Verdicts, row.AbnormalVerdicts, row.LastVerdictTick, len(ref.verdicts), abnormal, last.Tick)
	}
	body, _ := s.statusDocument(NewFleet([]*Server{s}))
	var status struct {
		Verdicts         int `json:"verdicts"`
		AbnormalVerdicts int `json:"abnormalVerdicts"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Verdicts != len(ref.verdicts) || status.AbnormalVerdicts != abnormal {
		t.Fatalf("%s: /api/status verdicts/abnormal = %d/%d, want %d/%d", step,
			status.Verdicts, status.AbnormalVerdicts, len(ref.verdicts), abnormal)
	}
}

// randomVerdicts draws n verdicts with ascending ticks starting after
// from, and every field varied: states and healths outside the named sets
// included.
func randomVerdicts(rng *rand.Rand, from, n int) []monitor.Verdict {
	vs := make([]monitor.Verdict, n)
	tick := from
	for i := range vs {
		tick += 1 + rng.IntN(25)
		v := &vs[i]
		v.Tick = tick
		v.Size = 20 + rng.IntN(41)
		v.Start = tick - v.Size
		v.Abnormal = rng.IntN(3) == 0
		v.AbnormalDB = rng.IntN(6) - 1
		v.States = make([]window.State, rng.IntN(7))
		for d := range v.States {
			v.States[d] = window.State(rng.IntN(3))
			if rng.IntN(40) == 0 {
				v.States[d] = window.State(rng.IntN(20) - 5)
			}
		}
		v.Expansions = rng.IntN(3)
		v.Health = detect.Health(rng.IntN(3))
		if rng.IntN(40) == 0 {
			v.Health = detect.Health(rng.IntN(20) - 5)
		}
		v.GapCells = rng.IntN(30)
	}
	return vs
}

func newBareServer(t *testing.T, name string, max int) *Server {
	t.Helper()
	o, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Workers:    1,
	}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	return New(o, name, max)
}

// TestVerdictBodiesMatchEncoder is the byte-identity golden: every body
// of /api/verdicts and /api/fleet/verdicts equals what encoding/json makes
// of the reference history, through an empty history, a restore,
// regenerated verdicts at or below the restore horizon, eviction and
// compaction at the bound, and unit names that need escaping.
func TestVerdictBodiesMatchEncoder(t *testing.T) {
	names := []string{"unit-a", "<db&co>", `say "hi"`, "line sep ", "bad\xffutf8\xc3"}
	for _, max := range []int{1, 4, 20} {
		t.Run(fmt.Sprintf("max=%d", max), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(max), 17))
			servers := make([]*Server, len(names))
			refs := make([]*refHistory, len(names))
			unitHs := make([]http.Handler, len(names))
			for i, name := range names {
				servers[i] = newBareServer(t, name, max)
				refs[i] = newRefHistory(servers[i].history.max)
				unitHs[i] = NewFleet([]*Server{servers[i]}).Handler()
			}
			fleetH := NewFleet(servers).Handler()
			checkAll := func(step string) {
				for i, s := range servers {
					checkAgainstRef(t, step, s, unitHs[i], fleetH, i, refs[i])
				}
			}
			checkAll("empty")

			restored := randomVerdicts(rng, 0, max+3)
			for i, s := range servers {
				s.RestoreHistory(restored)
				refs[i].restore(restored)
			}
			checkAll("restored")

			// The resumed detector regenerates verdicts at and below the
			// restore horizon before it passes it.
			through := restored[len(restored)-1].Tick
			regen := append([]monitor.Verdict{}, restored[len(restored)-2:]...)
			regen = append(regen, randomVerdicts(rng, through, 1)...)
			regen[len(regen)-1].Tick = through - 1
			// Enough fresh verdicts to evict past the bound and compact twice.
			fresh := randomVerdicts(rng, through, 2*max+5)
			for step, v := range append(regen, fresh...) {
				for i, s := range servers {
					s.mu.Lock()
					s.record(&v)
					s.mu.Unlock()
					s.Invalidate() // as Push does for every tick
					refs[i].push(&v)
				}
				// Every step for one name in turn; all names at the end.
				i := step % len(servers)
				checkAgainstRef(t, fmt.Sprintf("record %d (tick %d)", step, v.Tick), servers[i], unitHs[i], fleetH, i, refs[i])
			}
			checkAll("recorded")
		})
	}
}

// TestVerdictBodiesMatchEncoderLive drives the golden through Push: a
// faulted simulated unit whose verdicts include degraded and skipped
// rounds.
func TestVerdictBodiesMatchEncoderLive(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 400, Seed: 11, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewCollector(u.Series, workload.FaultPlan{
		Seed: 3, DropTickRate: 0.02, DropCellRate: 0.02,
		Silences: []workload.Silence{{DB: 1, Start: 150, Length: 90}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newBareServer(t, "live<&>", 8)
	ref := newRefHistory(8)
	h := NewFleet([]*Server{s}).Handler()
	for {
		sample, ok := c.Next()
		if !ok {
			break
		}
		v, err := s.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			ref.push(v)
			checkAgainstRef(t, fmt.Sprintf("tick %d", v.Tick), s, h, h, 0, ref)
		}
	}
	if len(ref.verdicts) == 0 {
		t.Fatal("no verdicts")
	}
}

// FuzzVerdictJSON compares the verdict appender with encoding/json over
// arbitrary field values: negative ints, both bools, and states and
// healths outside the named sets.
func FuzzVerdictJSON(f *testing.F) {
	f.Add(40, 20, 20, true, 2, []byte{0, 0, 2, 1, 0}, 1, 1, 3)
	f.Add(-1, -20, 0, false, -1, []byte{}, 0, 0, 0)
	f.Add(math.MaxInt64, math.MinInt64, 7, false, 5, []byte{7, 255, 128, 3}, -3, 7, -9)
	f.Add(0, 0, 0, true, 0, []byte(nil), math.MaxInt64, -1, math.MinInt64)
	f.Fuzz(func(t *testing.T, tick, start, size int, abnormal bool, abnormalDB int, states []byte, expansions, health, gapCells int) {
		v := monitor.Verdict{Tick: tick, GapCells: gapCells}
		v.Start, v.Size, v.Abnormal, v.AbnormalDB = start, size, abnormal, abnormalDB
		v.Expansions, v.Health = expansions, detect.Health(health)
		if states != nil {
			v.States = make([]window.State, len(states))
			for i, b := range states {
				v.States[i] = window.State(int8(b))
			}
		}
		want, err := json.Marshal(toVerdictJSON(&v))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendVerdict(nil, &v); !bytes.Equal(got, want) {
			t.Fatalf("appender diverges from encoding/json:\n got %s\nwant %s", got, want)
		}
	})
}

// blockingPersister parks the first PersistVerdict after it is armed
// until release is closed, holding the judge's lock and, through Push,
// the Server's.
type blockingPersister struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (p *blockingPersister) PersistVerdict(*monitor.Verdict, monitor.PersistContext) {
	if p.armed.CompareAndSwap(true, false) {
		close(p.entered)
		<-p.release
	}
}

func (p *blockingPersister) PersistThresholds(window.Thresholds, monitor.PersistContext) {}

// TestVerdictReadsDoNotWaitOnPush: while a Push is stuck in its persister
// (a slow fsync, a wedged disk), both verdict routes still answer at once
// with every verdict published before it, and the timed routes still
// answer 503 at their bound.
func TestVerdictReadsDoNotWaitOnPush(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 200, Seed: 5, Profile: workload.TencentIrregular,
		FluctuationRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewCollector(u.Series, workload.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	s := newBareServer(t, "blocked", 16)
	ts := httptest.NewServer(NewFleet([]*Server{s}).handler(100 * time.Millisecond))
	defer ts.Close()
	p := &blockingPersister{entered: make(chan struct{}), release: make(chan struct{})}
	s.online.SetPersister(p)
	var before []verdictJSON
	for len(before) < 3 {
		sample, ok := c.Next()
		if !ok {
			t.Fatal("series ended before three verdicts")
		}
		v, err := s.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			before = append(before, toVerdictJSON(v))
		}
	}

	p.armed.Store(true)
	pushed := make(chan error, 1)
	go func() {
		for {
			sample, ok := c.Next()
			if !ok {
				pushed <- errors.New("series ended before the next verdict")
				return
			}
			if v, err := s.Push(sample); err != nil || v != nil {
				pushed <- err
				return
			}
		}
	}()
	released := false
	release := func() {
		if !released {
			released = true
			close(p.release)
		}
	}
	t.Cleanup(release)
	select {
	case <-p.entered:
	case err := <-pushed:
		t.Fatalf("push returned without blocking: %v", err)
	}

	client := &http.Client{Timeout: time.Second}
	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s while Push is blocked: %v", url, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	if code, body := get(ts.URL + "/api/verdicts"); code != 200 || !bytes.Equal(body, encodeRef(t, before)) {
		t.Fatalf("/api/verdicts while blocked: %d %s", code, body)
	}
	since := before[0].Tick
	wantFleet := encodeRef(t, map[string]interface{}{
		"unit": 0, "name": "blocked", "count": len(before) - 1, "verdicts": before[1:],
	})
	if code, body := get(ts.URL + "/api/fleet/verdicts?unit=0&since=" + strconv.Itoa(since)); code != 200 || !bytes.Equal(body, wantFleet) {
		t.Fatalf("/api/fleet/verdicts while blocked: %d %s", code, body)
	}
	// Routes that take the unit lock keep the request timeout.
	if code, _ := get(ts.URL + "/api/status"); code != http.StatusServiceUnavailable {
		t.Fatalf("/api/status while blocked: %d, want 503 from the request timeout", code)
	}

	release()
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	var after []verdictJSON
	if code := getJSON(t, ts.URL+"/api/verdicts", &after).StatusCode; code != 200 || len(after) != len(before)+1 {
		t.Fatalf("after release: %d, %d verdicts, want %d", code, len(after), len(before)+1)
	}
}
