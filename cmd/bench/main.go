// Command bench measures the correlation engine's core hot paths with the
// standard library benchmark driver and writes the results as JSON, so the
// repository can track a committed baseline (BENCH_core.json) across
// changes.
//
// Usage:
//
//	bench                      # print JSON to stdout
//	bench -o BENCH_core.json   # rewrite the tracked baseline
//	bench -benchtime 2s        # steadier numbers
//
// The emitted document records, per benchmark, ns/op, B/op, and allocs/op,
// plus the allocation reduction of the scratch engine against the seed's
// allocating measure-closure path and the zero-alloc contracts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/fleet"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/relearn"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/server"
	"dbcatcher/internal/store"
	"dbcatcher/internal/thresholds"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// Schema versions the JSON layout for downstream tooling.
const Schema = "dbcatcher-bench/1"

// Entry is one benchmark's measurement.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// Report is the full document written to BENCH_core.json.
type Report struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU is the host's logical core count — recorded alongside
	// GOMAXPROCS so a baseline generated with a restricted GOMAXPROCS is
	// distinguishable from one generated on a genuinely smaller host.
	NumCPU      int     `json:"num_cpu"`
	GeneratedAt string  `json:"generated_at"`
	Window      int     `json:"window"`
	KPIs        int     `json:"kpis"`
	Databases   int     `json:"databases"`
	Benches     []Entry `json:"benches"`
	// BuildAllocReduction = allocs/op of the seed-equivalent allocating
	// build over the scratch engine's.
	BuildAllocReduction float64 `json:"build_alloc_reduction"`
	// KCDAllocsScratch is the scratch path's allocs/op — the zero-alloc
	// contract, asserted by TestKCDScratchZeroAlloc.
	KCDAllocsScratch int64 `json:"kcd_allocs_scratch"`
	// ScrapeAssembleAllocs is the scrape round assembler's allocs/op —
	// its zero-alloc contract, asserted by TestAssemblerShapesAndZeroAlloc.
	ScrapeAssembleAllocs int64 `json:"scrape_assemble_allocs"`
	// PromParseAllocs is the Prometheus text-exposition parser's allocs/op
	// decoding a healthy body into a warm payload — its zero-alloc
	// contract, the real-exporter counterpart of ScrapeAssembleAllocs.
	PromParseAllocs int64 `json:"prom_parse_allocs"`
	// IncidentIngestAllocs is the incident aggregator's steady-state
	// allocs/op for a 32-unit reinforcing round — its zero-alloc contract,
	// asserted by TestSteadyStateDedupIsAllocationFree.
	IncidentIngestAllocs int64 `json:"incident_ingest_allocs"`
}

func measure(name string, fn func(b *testing.B)) Entry {
	r := testing.Benchmark(fn)
	return Entry{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Iterations:  r.N,
	}
}

func main() {
	var (
		out       = flag.String("o", "", "write JSON to this file instead of stdout")
		diff      = flag.String("diff", "", "compare allocs/op against this baseline JSON and exit non-zero on regressions instead of writing a report")
		benchtime = flag.Duration("benchtime", time.Second, "per-benchmark measuring time")
		win       = flag.Int("window", 60, "correlation window length in ticks")
	)
	flag.Parse()
	flag.Set("test.benchtime", benchtime.String())

	const dbs = 5
	u, err := cluster.Simulate(cluster.Config{
		Name: "bench", Databases: dbs, Ticks: 600, Seed: 9,
		Profile: workload.TencentIrregular,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	opts := correlate.DetectionOptions()
	x, y := randomPair(*win, 3)

	rep := Report{
		Schema:      Schema,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Window:      *win,
		KPIs:        kpi.Count,
		Databases:   dbs,
	}

	add := func(e Entry) {
		rep.Benches = append(rep.Benches, e)
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}

	add(measure("kcd/alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			correlate.KCDWithDelay(x, y, opts)
		}
	}))
	scratch := correlate.NewScratch()
	kcdScratch := measure("kcd/scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			correlate.KCDWithDelayScratch(x, y, opts, scratch)
		}
	})
	add(kcdScratch)

	buildWith := func(e *correlate.Engine) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.BuildMatrices(u.Series, 0, *win, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// serial-alloc routes every pair through the measure closure — the
	// seed's allocation behaviour before the scratch engine existed.
	serialAlloc := measure("build_matrices/serial-alloc",
		buildWith(correlate.NewMeasureEngine(correlate.KCDMeasure(opts), 1)))
	add(serialAlloc)
	serialScratch := measure("build_matrices/serial-scratch",
		buildWith(correlate.NewEngine(opts, 1)))
	add(serialScratch)

	detectCfg := detect.Config{Thresholds: window.DefaultThresholds(kpi.Count), Workers: 1}
	add(measure("detect_run/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := detect.Run(u.Series, detectCfg); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Durable-state paths: the WAL append of the record every verdict
	// writes, unit 0's RecUnitVerdict (no fsync, so the framing/encode cost
	// is what's measured), and a full recovery of a populated data
	// directory.
	add(measure("wal/append", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "dbcatcher-bench-wal")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		st, _, err := store.Open(dir, store.Options{Fsync: store.FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		rec := store.UnitVerdictRecord{Verdict: store.VerdictRecord{
			Tick: 60, Start: 0, Size: 60, AbnormalDB: -1,
			States: []uint8{0, 0, 0, 0, 0},
		}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Verdict.Tick = i
			if _, err := st.AppendUnitVerdict(rec); err != nil {
				b.Fatal(err)
			}
		}
	}))
	add(measure("wal/recovery", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "dbcatcher-bench-rec")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		st, _, err := store.Open(dir, store.Options{Fsync: store.FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if _, err := st.AppendUnitVerdict(store.UnitVerdictRecord{Verdict: store.VerdictRecord{
				Tick: i, Size: 60, AbnormalDB: -1, States: []uint8{0, 0, 0, 0, 0},
			}}); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.WriteSnapshot(store.SnapshotState{Seq: 500}); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, rec, err := store.Open(dir, store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if len(rec.Records) == 0 {
				b.Fatal("recovery surfaced no records")
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The scrape round assembler: per-target KPI vectors (one of them
	// missing, so the NaN fill path is part of the warm loop) into the
	// monitor's sample shape. The warm path must stay allocation-free —
	// this is the per-round assembly cost in scrape mode.
	vecs := make([][]float64, dbs)
	for d := 0; d < dbs-1; d++ {
		v := make([]float64, kpi.Count)
		for k := range v {
			v[k] = u.Series.Data[k][d].At(0)
		}
		vecs[d] = v
	}
	asm := scrape.NewAssembler(kpi.Count, dbs)
	scrapeAssemble := measure("scrape/assemble", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := asm.Assemble(vecs); err != nil {
				b.Fatal(err)
			}
		}
	})
	add(scrapeAssemble)

	// The wire parsers: one healthy exporter body (with a NaN gap cell, so
	// the gap literal is part of the warm loop) decoded into a reused
	// payload, per format. The prom path is the per-target per-round decode
	// cost in real-exporter mode and must match the JSON path's zero-alloc
	// contract — neither parser may allocate once the payload's vector has
	// its capacity.
	wire := make([]float64, kpi.Count)
	for k := range wire {
		wire[k] = u.Series.Data[k][0].At(0)
	}
	wire[kpi.Count/2] = math.NaN()
	var parsePayload scrape.Payload
	jsonBody := scrape.AppendBody(nil, &scrape.Payload{Tick: 1, DB: 0, Values: wire}, scrape.FormatJSON)
	parseJSON := measure("scrape/parse-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := scrape.ParseBody(jsonBody, &parsePayload, scrape.FormatJSON); err != nil {
				b.Fatal(err)
			}
		}
	})
	add(parseJSON)
	promBody := scrape.AppendBody(nil, &scrape.Payload{Tick: 1, DB: 0, Values: wire}, scrape.FormatProm)
	parseProm := measure("scrape/parse-prom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := scrape.ParseBody(promBody, &parsePayload, scrape.FormatProm); err != nil {
				b.Fatal(err)
			}
		}
	})
	add(parseProm)
	// The same decode for a whole unit's body, the shape a /kpis scrape
	// carries: every database's vector from one exposition into warm
	// payloads, under the same zero-alloc contract.
	unitWire := make([]scrape.Payload, dbs)
	for d := range unitWire {
		unitWire[d] = scrape.Payload{Tick: 1, DB: d, Values: wire}
	}
	promUnitBody := scrape.AppendUnit(nil, unitWire, scrape.FormatProm)
	parsedUnit, err := scrape.ParseUnit(promUnitBody, nil, scrape.FormatProm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	add(measure("scrape/parse-prom-unit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if parsedUnit, err = scrape.ParseUnit(promUnitBody, parsedUnit, scrape.FormatProm); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// scrape/round-*: one Scraper.Round over the unit's SelfTargets (one
	// /kpis endpoint) in prom, through an in-memory transport serving
	// canned unit bodies, so the measurement is the scraper's own per-round
	// cost (workers, request, read, parse, breaker and staleness
	// bookkeeping, assembly) without the network or an exporter. The served
	// tick alternates between rounds, so no database goes stale. round-c1
	// is one fetch at a time (the per-unit setting of a 32-unit fleet on a
	// small host); round-all is the daemon's default of every endpoint at
	// once.
	canned := &cannedTransport{}
	for tick := range canned.bodies {
		for d := range unitWire {
			unitWire[d].Tick = tick
		}
		canned.bodies[tick] = scrape.AppendUnit(nil, unitWire, scrape.FormatProm)
	}
	roundBench := func(name string, conc int) Entry {
		sc, err := scrape.New(scrape.Config{
			Targets:     scrape.SelfTargets("http://bench", dbs),
			KPIs:        kpi.Count,
			Format:      scrape.FormatProm,
			Concurrency: conc,
			Client:      &http.Client{Transport: canned},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return measure(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canned.tick = i % 2
				_, r, err := sc.Round(context.Background())
				if err != nil || r.Arrived != dbs {
					b.Fatalf("round %d: %+v, %v", i, r, err)
				}
			}
		})
	}
	add(roundBench("scrape/round-c1", 1))
	add(roundBench("scrape/round-all", 0))

	// scrape/setup-unit: what a scrape-mode daemon builds per unit before
	// its first round — the feed, the exporter's handler, the unit's
	// SelfTargets and its scraper.
	add(measure("scrape/setup-unit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = scrape.NewExporter(scrape.NewFeed(kpi.Count, dbs)).Handler()
			if _, err := scrape.New(scrape.Config{
				Targets: scrape.SelfTargets("http://bench", dbs),
				KPIs:    kpi.Count,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// One genome evaluation of the relearn supervisor's holdout fitness:
	// replay the detector over materialized judgment-record samples whose
	// providers cache the correlation matrices, so this is the steady-state
	// per-candidate cost of the background threshold search (the GA pays it
	// population x generations times per retrain attempt).
	recs := make([]feedback.Record, 0, 40)
	for i := 0; i < 40; i++ {
		recs = append(recs, feedback.Record{Start: i * 14, Size: 20, Actual: i%5 == 0})
	}
	samples, droppedRecs := relearn.Materialize(relearn.SeriesSource{U: u.Series}, recs)
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no relearn samples materialized")
		os.Exit(1)
	}
	fit := thresholds.DetectorFitness(samples, window.FlexConfig{})
	cand := window.DefaultThresholds(kpi.Count)
	fit(cand) // warm the cached providers so the matrix build is off-path
	add(measure("relearn/fitness-eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := fit(cand); s < 0 || s > 1 {
				b.Fatalf("fitness out of range: %v", s)
			}
		}
	}))
	if droppedRecs > 0 {
		fmt.Fprintf(os.Stderr, "relearn/fitness-eval: %d of %d records dropped\n", droppedRecs, len(recs))
	}

	// fleet/round-N: one whole fleet judgment round through the shard
	// scheduler — every unit ingests W ticks and emits exactly one
	// fixed-window verdict. All shards read the same staged tick (judges
	// copy during ingestion), so the measurement isolates scheduling and
	// detection cost from sample construction. The scheduler pool is pinned
	// to one worker: a GOMAXPROCS-sized
	// pool spawns one goroutine per core on every push, which would make
	// allocs/op depend on the host's core count and the gate on the host.
	const fleetWin = 20
	fleetTicks := make([][][]float64, fleetWin)
	for t := 0; t < fleetWin; t++ {
		sample := make([][]float64, kpi.Count)
		for k := range sample {
			sample[k] = make([]float64, dbs)
			for d := 0; d < dbs; d++ {
				sample[k][d] = u.Series.Data[k][d].At(t)
			}
		}
		fleetTicks[t] = sample
	}
	fleetBench := func(n int) Entry {
		units := make([]fleet.Pusher, n)
		for i := range units {
			o, err := monitor.NewOnline(detect.Config{
				Thresholds: window.DefaultThresholds(kpi.Count),
				Flex:       window.FlexConfig{Initial: fleetWin, Max: fleetWin},
				Workers:    1,
			}, kpi.Count, dbs)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			units[i] = o
		}
		mon, err := fleet.NewMonitor(units, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		batch := make([][][]float64, n)
		return measure(fmt.Sprintf("fleet/round-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for t := 0; t < fleetWin; t++ {
					for j := range batch {
						batch[j] = fleetTicks[t]
					}
					if _, err := mon.Push(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	add(fleetBench(1))
	add(fleetBench(8))
	add(fleetBench(32))

	// server/status: the API status document under dashboard polling,
	// through the surface the daemon serves, with its request timeout. The
	// cached variant is the steady-state hit — a conditional GET against an
	// unchanged generation answers 304 from the cached document without
	// re-serializing anything — and the rebuild variant forces the full
	// re-marshal an actual state change pays.
	statusOnline, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Flex:       window.FlexConfig{Initial: fleetWin, Max: fleetWin},
		Workers:    1,
	}, kpi.Count, dbs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	statusSrv := server.New(statusOnline, "bench", 64)
	for t := 0; t < 3*fleetWin; t++ {
		if _, err := statusSrv.Push(fleetTicks[t%fleetWin]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	statusHandler := server.NewFleet([]*server.Server{statusSrv}).Handler()
	statusReq, err := http.NewRequest(http.MethodGet, "/api/status", nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	warm := httptest.NewRecorder()
	statusHandler.ServeHTTP(warm, statusReq)
	etag := warm.Header().Get("ETag")
	if warm.Code != http.StatusOK || etag == "" {
		fmt.Fprintf(os.Stderr, "bench: status warmup = %d, etag %q\n", warm.Code, etag)
		os.Exit(1)
	}
	condReq := statusReq.Clone(statusReq.Context())
	condReq.Header.Set("If-None-Match", etag)
	sink := &discardResponseWriter{header: make(http.Header)}
	statusCached := measure("server/status-cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink.code = 0
			statusHandler.ServeHTTP(sink, condReq)
			if sink.code != http.StatusNotModified {
				b.Fatalf("cached status = %d", sink.code)
			}
		}
	})
	add(statusCached)
	add(measure("server/status-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			statusSrv.Invalidate()
			sink.code = 0
			statusHandler.ServeHTTP(sink, statusReq)
			if sink.code != http.StatusOK {
				b.Fatalf("rebuilt status = %d", sink.code)
			}
		}
	}))

	// server/fleet-verdicts: the fleet verdict route through Fleet.Handler(),
	// on a unit holding 40 verdicts in a 128-verdict history (the
	// e2ebench shape). The since variant is the e2ebench verdict reader's
	// request (the newest verdict, by since=tick-1 and limit=128); the page
	// variant is the dashboard's limit=16 page.
	verdictOnline, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Flex:       window.FlexConfig{Initial: fleetWin, Max: fleetWin},
		Workers:    1,
	}, kpi.Count, dbs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	verdictSrv := server.New(verdictOnline, "bench", 128)
	lastTick := 0
	for t := 0; t < 40*fleetWin; t++ {
		v, err := verdictSrv.Push(fleetTicks[t%fleetWin])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if v != nil {
			lastTick = v.Tick
		}
	}
	fleetHandler := server.NewFleet([]*server.Server{verdictSrv}).Handler()
	verdictBench := func(name, url string) Entry {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return measure(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink.code = 0
				fleetHandler.ServeHTTP(sink, req)
				if sink.code != http.StatusOK {
					b.Fatalf("%s = %d", url, sink.code)
				}
			}
		})
	}
	add(verdictBench("server/fleet-verdicts-since", fmt.Sprintf("/api/fleet/verdicts?unit=0&since=%d&limit=128", lastTick-1)))
	add(verdictBench("server/fleet-verdicts-page", "/api/fleet/verdicts?unit=0&limit=16"))

	// incident/ingest: the incident aggregator's steady-state dedup path —
	// one 32-unit round where every unit reinforces its already-open
	// incident. This is the per-round cost while a fleet-wide fault is
	// ongoing (the worst sustained load) and it must stay allocation-free:
	// merge hits update incidents in place and the close sweep reuses its
	// scratch slice. The persist hook is attached so the measured path is
	// the journaling configuration the daemon actually runs.
	const ingestUnits = 32
	iagg := incident.New(incident.Config{ProximityTicks: 64, CloseAfter: 1 << 30})
	iagg.SetPersist(func(incident.Transition) {})
	ingestEvents := make([]incident.Event, ingestUnits)
	ingestTick := 100
	ingestRound := func() {
		for i := range ingestEvents {
			ingestEvents[i] = incident.Event{
				Unit: i, DB: i % dbs, KPIs: incident.KPISet(0).With(2).With(12),
				Start: ingestTick - 20, End: ingestTick,
			}
		}
		iagg.ObserveRound(ingestTick, ingestEvents)
		ingestTick += 4
	}
	ingestRound() // first round opens the incidents; every later one merges
	incidentIngest := measure("incident/ingest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ingestRound()
		}
	})
	add(incidentIngest)

	rep.BuildAllocReduction = float64(serialAlloc.AllocsPerOp) / float64(serialScratch.AllocsPerOp)
	rep.KCDAllocsScratch = kcdScratch.AllocsPerOp
	rep.ScrapeAssembleAllocs = scrapeAssemble.AllocsPerOp
	rep.PromParseAllocs = parseProm.AllocsPerOp
	rep.IncidentIngestAllocs = incidentIngest.AllocsPerOp

	if *diff != "" {
		os.Exit(diffBaseline(*diff, rep))
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (alloc reduction %.1fx)\n", *out, rep.BuildAllocReduction)
}

// diffBaseline compares the fresh run's allocs/op against the committed
// baseline and returns the process exit code: 1 when any benchmark
// allocates more per op than the baseline records, 0 otherwise. Only
// allocs/op is gated — it is deterministic per op, while ns/op moves with
// the host and load. Fan-out benchmarks (fleet/round-N) carry ±1 runtime
// jitter from goroutine allocation, so the gate allows 0.1% relative
// slack; zero-alloc contracts stay exact because 0.1% of 0 is 0.
// Benchmarks absent from the baseline are reported but never fail the
// diff (regenerate the baseline to start gating them).
func diffBaseline(path string, rep Report) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-diff:", err)
		return 1
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench-diff: %s: %v\n", path, err)
		return 1
	}
	if base.Schema != Schema {
		fmt.Fprintf(os.Stderr, "bench-diff: %s has schema %q, want %q\n", path, base.Schema, Schema)
		return 1
	}
	baseline := make(map[string]Entry, len(base.Benches))
	for _, e := range base.Benches {
		baseline[e.Name] = e
	}
	regressions := 0
	for _, e := range rep.Benches {
		b, ok := baseline[e.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench-diff: %-28s %8d allocs/op (new, not gated)\n", e.Name, e.AllocsPerOp)
			continue
		}
		status := "ok"
		if e.AllocsPerOp > b.AllocsPerOp+b.AllocsPerOp/1000 {
			status = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(os.Stderr, "bench-diff: %-28s %8d -> %8d allocs/op  %s\n",
			e.Name, b.AllocsPerOp, e.AllocsPerOp, status)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "bench-diff: %d allocation regression(s) against %s\n", regressions, path)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench-diff: no allocation regressions against %s\n", path)
	return 0
}

// discardResponseWriter is a reusable ResponseWriter for the server
// benchmarks: it keeps one header map and drops the body, so the
// measurement is the handler's own cost rather than recorder setup.
type discardResponseWriter struct {
	header http.Header
	code   int
}

func (w *discardResponseWriter) Header() http.Header { return w.header }
func (w *discardResponseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// cannedTransport answers a scrape of http://host/kpis with the unit's
// canned body for the current tick, in memory. tick is set between rounds,
// before Round starts the workers that read it.
type cannedTransport struct {
	bodies [2][]byte // [tick parity]
	tick   int
}

func (c *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/kpis" {
		return nil, fmt.Errorf("canned transport: no target at %s", req.URL.Path)
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(bytes.NewReader(c.bodies[c.tick])),
		Request:    req,
	}, nil
}

// randomPair mirrors the repository benchmark's correlated pair generator.
func randomPair(n int, seed uint64) ([]float64, []float64) {
	rng := mathx.NewRNG(seed)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Norm()
		y[i] = 0.7*x[i] + 0.3*rng.Norm()
	}
	return x, y
}
