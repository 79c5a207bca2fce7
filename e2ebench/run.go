package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/metrics"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/store"
)

// runConfig is one run of one workload.
type runConfig struct {
	w          workload
	seed       uint64
	seconds    float64
	scale      float64
	trace      bool
	dir        string // scratch directory for the WAL; removed afterwards
	cpuProfile string // CPU profile of the epochs, or ""
	spansFile  string // span dump of a traced run, or ""
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    *traceReport      `json:"layers,omitempty"`
	// Digest hashes every unit's verdict stream; two seeds must differ.
	Digest string `json:"verdict_digest"`
}

func (r *result) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not finite", name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) problem(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runner drives one system through the phases.
type runner struct {
	cfg      runConfig
	w        workload
	in       []unitInput
	sys      *system
	tr       *tracer
	base     time.Time
	reader   *verdictReader
	tick     int
	samples  [][][]float64
	verdicts [][]*monitor.Verdict
	events   []incident.Event

	dashboard *dashboard

	rounds, roundErrors   int64
	explains, transitions int
	closedRoots           []int32
	lateNs                []float64
	// setups and restarts are the boundaries' timings, in seconds.
	setups, restarts []float64
	// verdictCuts and readCuts end each closed segment's latencies in the
	// reader's and the dashboard's samples.
	verdictCuts, readCuts []int
}

func (r *runner) clock() int64 { return int64(time.Since(r.base)) }

// step runs one tick the way the daemon's fleet feeder does: publish (scrape
// workloads) or hand over the tick's samples, run the fleet round, attribute
// each abnormal verdict, then fold the round into the incident stage and
// journal its transitions. The round's verdicts are servable as soon as the
// round returns, so they go to the reader then, which reads them back beside
// the rest of the tick. Outside the open loop the tick also waits for those
// reads, so no round queues behind another's. The reads' latencies count
// from due and are recorded under phase.
func (r *runner) step(due int64, phase int) error {
	t := r.tick
	root := r.tr.begin(kTick, -1)
	if root.id >= 0 && phase == phaseClosed {
		r.closedRoots = append(r.closedRoots, root.id)
	}
	var verdicts []*monitor.Verdict
	var err error
	r.rounds++
	if r.w.scrape {
		ps := r.tr.begin(kPublish, root.id)
		for i, f := range r.sys.feeds {
			if err := f.Publish(t, r.in[i].sample(t)); err != nil {
				return err
			}
		}
		r.tr.end(ps, false)
		rs := r.beginRound(root.id)
		verdicts, _, err = r.sys.mon.ScrapeRound(context.Background())
		r.tr.end(rs, false)
	} else {
		for i := range r.samples {
			r.samples[i] = r.in[i].sample(t)
		}
		rs := r.beginRound(root.id)
		verdicts, err = r.sys.mon.Push(r.samples)
		r.tr.end(rs, false)
	}
	if err != nil {
		r.roundErrors++
		return fmt.Errorf("tick %d: %w", t, err)
	}
	var batch *readBatch
	for unit, v := range verdicts {
		if v == nil {
			continue
		}
		r.verdicts[unit] = append(r.verdicts[unit], v)
		if batch == nil {
			batch = &readBatch{due: due, root: root.id, phase: phase, ack: phase != phaseOpen}
		}
		batch.items = append(batch.items, readItem{unit: unit, v: v})
	}
	if batch != nil {
		r.reader.submit(batch)
	}
	r.events = r.events[:0]
	for unit, v := range verdicts {
		if v == nil || !v.Abnormal {
			continue
		}
		es := r.tr.begin(kExplain, root.id)
		kpis := deviatingKPIs(r.sys.onlines[unit], v)
		r.tr.end(es, false)
		r.explains++
		r.events = append(r.events, incident.Event{
			Unit: unit, DB: v.AbnormalDB, KPIs: kpis, Start: v.Start, End: v.Start + v.Size,
		})
	}
	r.sys.incBuf = r.sys.incBuf[:0]
	ob := r.tr.begin(kObserve, root.id)
	r.sys.agg.ObserveRound(t, r.events)
	r.tr.end(ob, false)
	if len(r.sys.incBuf) > 0 {
		as := r.tr.begin(kIncAppend, root.id)
		r.sys.fp.RecordIncidentRound(t, r.sys.incBuf)
		r.tr.end(as, false)
		r.transitions += len(r.sys.incBuf)
	}
	if batch != nil && batch.ack {
		r.reader.await()
	}
	r.tr.end(root, false)
	r.tick++
	return nil
}

func (r *runner) beginRound(parent int32) spanRef {
	ref := r.tr.begin(kRound, parent)
	if r.tr != nil {
		r.tr.round.Store(ref.id)
	}
	return ref
}

// deviatingKPIs is cmd/dbcatcherd's culprit attribution: re-judge the
// verdict's window with per-KPI explanation on the abnormal database.
func deviatingKPIs(o *monitor.Online, v *monitor.Verdict) incident.KPISet {
	if v.AbnormalDB < 0 {
		return 0
	}
	u, err := o.Processor().Window(v.Start, v.Size)
	if err != nil {
		return 0
	}
	exps, err := detect.Explain(detect.NewProvider(u, nil, nil), detect.Config{
		Thresholds: o.Thresholds(),
	}, 0, v.Size)
	if err != nil || v.AbnormalDB >= len(exps) {
		return 0
	}
	var set incident.KPISet
	for _, k := range exps[v.AbnormalDB].Culprits() {
		set = set.With(int(k))
	}
	return set
}

// runOnce generates the inputs, builds the system, runs the warm-up and the
// epochs, checks every output and reports.
func runOnce(cfg runConfig) (*result, error) {
	w := cfg.w
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]metric{}}
	warmupTicks, block, closedTicks, openTicks := w.ticks(cfg.seconds, cfg.scale)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)

	in, err := generate(w, cfg.seed, warmupTicks+epochs*(closedTicks+openTicks))
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		perTick := 4 + 1.3*float64(w.units)
		if w.scrape {
			perTick += float64(w.units * dbsPerUnit * 2)
		}
		traced := epochs * (closedTicks/2 + openTicks)
		reads := w.readRate * cfg.seconds * cfg.scale * 2
		tr = newTracer(int(float64(traced)*perTick*1.25+reads)+1024, w.units)
	}

	sys, err := newSystem(w, filepath.Join(cfg.dir, "wal"), tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// Start the timed part from a collected heap so garbage from the
	// earlier steps does not land in it.
	runtime.GC()
	r := &runner{cfg: cfg, w: w, in: in, sys: sys, tr: tr, base: time.Now(),
		samples: make([][][]float64, w.units), verdicts: make([][]*monitor.Verdict, w.units)}
	r.reader = startReader(sys.api.URL, r.clock, tr, openTicks+1)
	runErr := r.phases(res, warmupTicks, block, closedTicks, openTicks)
	r.reader.finish()
	if runErr != nil {
		sys.close()
		return nil, runErr
	}
	res.put("setup_s", "s", mathx.Median(r.setups))
	res.put("recover_s", "s", mathx.Median(r.restarts))
	res.put("peak_rss_mb", "MB", peakRSSMB())
	if cfg.trace && cfg.spansFile != "" {
		if err := tr.writeSpans(cfg.spansFile); err != nil {
			return nil, err
		}
	}

	// Account what the run attempted and what failed, before teardown.
	var scrapes, scrapeOK, retries, timeouts, late int
	for _, sc := range sys.scrapers {
		h := sc.Health()
		late += h.LateRounds
		for _, t := range h.Targets {
			scrapes += t.Scrapes
			scrapeOK += t.Successes
			retries += t.Retries
			timeouts += t.Timeouts
		}
	}
	storeM := sys.st.Metrics()
	fpStatus := sys.fp.Status().(store.FleetStatus)
	aggStatus := sys.agg.Status()
	if err := sys.close(); err != nil {
		res.problem("store close: %v", err)
	}
	walBytes, err := dirBytes(sys.dir)
	if err != nil {
		return nil, err
	}
	reads := r.reader.reads + r.dashboard.reads
	readFailures := r.reader.failures + r.dashboard.failures
	res.Attempted = r.rounds + int64(scrapes) + int64(storeM.Appends) + reads
	res.Failed = r.roundErrors + int64(scrapes-scrapeOK) + int64(fpStatus.Errors) + readFailures
	res.Problems = append(res.Problems, r.reader.problems...)
	res.Problems = append(res.Problems, r.dashboard.problems...)

	// Check: the fleet's verdicts equal a bare judge's on the same input.
	checked := []int{0, w.units / 2, w.units - 1}
	slices.Sort(checked)
	for _, u := range slices.Compact(checked) {
		if err := r.bareCheck(u); err != nil {
			res.problem("unit %d: %v", u, err)
		}
	}

	// Check: the 32-unit workloads exercise abnormal verdicts, window
	// expansion and incident transitions.
	var abnormal, expansions, degraded, skipped, emitted int
	for _, vs := range r.verdicts {
		for _, v := range vs {
			emitted++
			expansions += v.Expansions
			if v.Abnormal {
				abnormal++
			}
			switch v.Health {
			case detect.HealthDegraded:
				degraded++
			case detect.HealthSkipped:
				skipped++
			}
		}
	}
	if w.units > 1 && (abnormal == 0 || expansions == 0 || r.transitions == 0) {
		res.problem("input did not exercise detection: %d abnormal verdicts, %d expansions, %d incident transitions",
			abnormal, expansions, r.transitions)
	}

	fm, err := r.fMeasure()
	if err != nil {
		return nil, err
	}
	res.Digest = r.digest()

	// End-to-end metrics (see README.md for definitions) come from the
	// closed loop; the open loop's latencies are diagnostics.
	verdictMs, readMs := msOf(r.reader.latNs[phaseClosed]), msOf(r.dashboard.latNs[phaseClosed])
	openVerdictMs, openReadMs := msOf(r.reader.latNs[phaseOpen]), msOf(r.dashboard.latNs[phaseOpen])
	res.put("verdict_p50_ms", "ms", segmentQuantile(verdictMs, r.verdictCuts, 0.5))
	res.put("verdict_p90_ms", "ms", segmentQuantile(verdictMs, r.verdictCuts, 0.9))
	res.put("error_rate", "ratio", float64(res.Failed)/float64(res.Attempted))
	res.put("verdict_samples", "count", float64(len(verdictMs)))
	res.put("read_samples", "count", float64(len(readMs)))
	res.put("verdict_p99_ms", "ms", mathx.Quantile(verdictMs, 0.99))
	res.put("read_p50_ms", "ms", segmentQuantile(readMs, r.readCuts, 0.5))
	res.put("read_p90_ms", "ms", segmentQuantile(readMs, r.readCuts, 0.9))
	res.put("open_verdict_p50_ms", "ms", mathx.Quantile(openVerdictMs, 0.5))
	res.put("open_verdict_p90_ms", "ms", mathx.Quantile(openVerdictMs, 0.9))
	res.put("open_read_p50_ms", "ms", mathx.Quantile(openReadMs, 0.5))
	res.put("closed_ticks", "count", float64(epochs*closedTicks))
	res.put("open_ticks", "count", float64(epochs*openTicks))

	// Per-layer metrics.
	res.put("detect.f_measure", "ratio", fm)
	res.put("detect.explain_calls", "count", float64(r.explains))
	res.put("monitor.verdicts", "count", float64(emitted))
	res.put("monitor.expansions", "count", float64(expansions))
	res.put("monitor.degraded_verdicts", "count", float64(degraded))
	res.put("monitor.skipped_rounds", "count", float64(skipped))
	res.put("scrape.requests", "count", float64(scrapes))
	res.put("scrape.useful_ratio", "ratio", ratio(scrapeOK, scrapes))
	res.put("scrape.retries", "count", float64(retries))
	res.put("scrape.timeouts", "count", float64(timeouts))
	res.put("scrape.late_rounds", "count", float64(late))
	res.put("store.appends", "count", float64(storeM.Appends))
	res.put("store.syncs", "count", float64(storeM.Syncs))
	res.put("store.wal_bytes", "bytes", float64(walBytes))
	res.put("store.errors", "count", float64(fpStatus.Errors))
	res.put("incident.events", "count", float64(r.explains))
	res.put("incident.merged", "count", float64(aggStatus.Merged))
	res.put("incident.clusters_closed", "count", float64(aggStatus.ClosedClusters))
	res.put("incident.transitions", "count", float64(r.transitions))
	res.put("incident.clusters_attributed", "count", float64(sys.attribs))
	res.put("server.read_errors", "count", float64(readFailures))
	res.put("server.verdict_get_p50_us", "us", mathx.Quantile(usOf(r.reader.getNs), 0.5))
	res.put("server.verdict_queue_wait_p50_us", "us", mathx.Quantile(usOf(r.reader.waitNs), 0.5))
	res.put("server.status_get_p50_us", "us", mathx.Quantile(usOf(r.dashboard.statusNs), 0.5))
	res.put("server.incidents_get_p50_us", "us", mathx.Quantile(usOf(r.dashboard.incidentsNs), 0.5))
	lateMs := msOf(r.lateNs)
	_, lateMax := mathx.MinMax(lateMs)
	res.put("gen.late_max_ms", "ms", lateMax)
	res.put("gen.late_p99_ms", "ms", mathx.Quantile(lateMs, 0.99))
	if tr != nil {
		r.putTrace(res)
	}

	res.Correct = len(res.Problems) == 0
	return res, nil
}

// phases runs the warm-up and then the epochs: in each, a closed-loop
// segment, an open-loop segment and a boundary.
func (r *runner) phases(res *result, warmupTicks, block, closedTicks, openTicks int) (err error) {
	for i := 0; i < warmupTicks; i++ {
		if err := r.step(r.clock(), phaseWarmup); err != nil {
			return err
		}
	}
	r.dashboard = newDashboard(r.sys.api.URL, r.clock, r.tr, r.w.readRate, r.w.units)
	defer r.dashboard.client.CloseIdleConnections()
	defer r.dashboard.halt()
	if r.cfg.cpuProfile != "" {
		f, cerr := os.Create(r.cfg.cpuProfile)
		if cerr != nil {
			return cerr
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}

	var m0, m1 runtime.MemStats
	var mallocs, allocBytes, gcs, pauseNs uint64
	var groupRatios, blockNs []float64
	for e := 0; e < epochs; e++ {
		// Closed loop: each round starts when the previous one, including
		// its incident and WAL work and the read-back of its verdicts, has
		// finished. The dashboard polls at its rate throughout.
		r.dashboard.start(r.clock(), phaseClosed)
		runtime.ReadMemStats(&m0)
		var onNs, offNs float64 // per group
		blockStart := r.clock()
		for j := 0; j < closedTicks; j++ {
			q := (j / block) % 4
			on := q == 1 || q == 2
			if r.tr != nil {
				r.tr.on.Store(on)
			}
			if err := r.step(r.clock(), phaseClosed); err != nil {
				return err
			}
			if (j+1)%block != 0 {
				continue
			}
			now := r.clock()
			blockNs = append(blockNs, float64(now-blockStart))
			if on {
				onNs += float64(now - blockStart)
			} else {
				offNs += float64(now - blockStart)
			}
			blockStart = now
			if q == 3 {
				groupRatios = append(groupRatios, onNs/offNs)
				onNs, offNs = 0, 0
			}
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		gcs += uint64(m1.NumGC - m0.NumGC)
		pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		r.dashboard.halt()
		r.verdictCuts = append(r.verdictCuts, len(r.reader.latNs[phaseClosed]))
		r.readCuts = append(r.readCuts, len(r.dashboard.latNs[phaseClosed]))

		// Open loop: tick j is due j/R after the segment starts, whether or
		// not the previous round has finished; latency counts from the due
		// time. The dashboard runs on the tick clock: read j is due three
		// quarters of a tick after tick j*R/D, once that tick's round has
		// usually finished, so every run reads at the same phases of the
		// rounds.
		if r.tr != nil {
			r.tr.on.Store(true)
		}
		start := r.clock()
		r.dashboard.start(start+int64(0.75e9/r.w.openRate), phaseOpen)
		for j := 0; j < openTicks; j++ {
			due := start + int64(float64(j)*1e9/r.w.openRate)
			if d := due - r.clock(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			r.lateNs = append(r.lateNs, float64(r.clock()-due))
			if err := r.step(due, phaseOpen); err != nil {
				return err
			}
		}
		r.dashboard.halt()
		r.reader.drain()
		if r.tr != nil {
			r.tr.on.Store(false)
		}
		if err := r.boundary(res, e == epochs-1); err != nil {
			return err
		}
	}
	// The closed-loop rate is taken over blocks of equal tick counts, as the
	// median block's rate, so a disturbance in a few blocks does not move it.
	res.put("unit_ticks_per_s", "1/s", float64(r.w.units*block)/(mathx.Median(blockNs)/1e9))
	unitTicks := float64(r.w.units * epochs * closedTicks)
	res.put("runtime.allocs_per_unit_tick", "count", float64(mallocs)/unitTicks)
	res.put("runtime.bytes_per_unit_tick", "bytes", float64(allocBytes)/unitTicks)
	res.put("runtime.gc_cycles", "count", float64(gcs))
	res.put("runtime.gc_pause_total_ms", "ms", float64(pauseNs)/1e6)
	if r.tr != nil {
		res.put("trace.overhead_pct", "%", 100*(mathx.Median(groupRatios)-1))
	}
	return nil
}

// bareCheck feeds a fresh judge the same samples the fleet ingested and
// compares the verdict streams.
func (r *runner) bareCheck(unit int) error {
	o, err := monitor.NewOnline(onlineConfig(), kpi.Count, dbsPerUnit)
	if err != nil {
		return err
	}
	want := r.verdicts[unit]
	k := 0
	for t := 0; t < r.tick; t++ {
		v, err := o.Push(r.in[unit].sample(t))
		if err != nil {
			return fmt.Errorf("bare judge tick %d: %w", t, err)
		}
		if v == nil {
			continue
		}
		if k >= len(want) {
			return fmt.Errorf("bare judge emitted more than the fleet's %d verdicts", len(want))
		}
		if !sameJudgment(v, want[k]) {
			return fmt.Errorf("verdict %d (tick %d) differs from a bare judge's", k, v.Tick)
		}
		k++
	}
	if k != len(want) {
		return fmt.Errorf("bare judge emitted %d verdicts, the fleet %d", k, len(want))
	}
	return nil
}

func sameJudgment(a, b *monitor.Verdict) bool {
	if a.Tick != b.Tick || a.Start != b.Start || a.Size != b.Size || a.Abnormal != b.Abnormal ||
		a.AbnormalDB != b.AbnormalDB || a.Expansions != b.Expansions || a.Health != b.Health ||
		a.GapCells != b.GapCells || len(a.States) != len(b.States) ||
		math.Float64bits(a.MeanCorr) != math.Float64bits(b.MeanCorr) {
		return false
	}
	for i := range a.States {
		if a.States[i] != b.States[i] {
			return false
		}
	}
	return true
}

// fMeasure scores every emitted verdict against the tiled labels.
func (r *runner) fMeasure() (float64, error) {
	var c metrics.Confusion
	for u, vs := range r.verdicts {
		labels := &anomaly.Labels{Point: make([]bool, r.tick)}
		for t := range labels.Point {
			labels.Point[t] = r.in[u].abnormal[t%len(r.in[u].abnormal)]
		}
		dv := make([]detect.Verdict, len(vs))
		for i, v := range vs {
			dv[i] = v.Verdict
		}
		uc, err := detect.Evaluate(dv, labels)
		if err != nil {
			return 0, err
		}
		c.Merge(uc)
	}
	return c.FMeasure(), nil
}

// digest hashes every unit's verdict stream.
func (r *runner) digest() string {
	h := fnv.New64a()
	for u, vs := range r.verdicts {
		for _, v := range vs {
			fmt.Fprintf(h, "%d:%d:%d:%d:%t:%d;", u, v.Tick, v.Start, v.Size, v.Abnormal, v.AbnormalDB)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// putTrace analyzes the spans and reports the per-layer metrics.
func (r *runner) putTrace(res *result) {
	rep := r.tr.analyze(r.closedRoots)
	res.Layers = rep
	p50 := func(k int) float64 { return mathx.Quantile(usOf(rep.durations[k]), 0.5) }
	res.put("fleet.round_p50_us", "us", p50(kRound))
	res.put("fleet.round_p99_us", "us", mathx.Quantile(usOf(rep.durations[kRound]), 0.99))
	res.put("fleet.self_share", "ratio", rep.FleetSelf)
	res.put("fleet.parallelism", "ratio", rep.FleetPar)
	res.put("monitor.push_ingest_p50_us", "us", mathx.Quantile(usOf(rep.pushIngestNs), 0.5))
	res.put("monitor.push_judge_p50_us", "us", mathx.Quantile(usOf(rep.pushJudgeNs), 0.5))
	res.put("monitor.push_judge_p99_us", "us", mathx.Quantile(usOf(rep.pushJudgeNs), 0.99))
	res.put("store.persist_p50_us", "us", p50(kPersist))
	res.put("store.incident_append_p50_us", "us", p50(kIncAppend))
	res.put("incident.observe_p50_us", "us", p50(kObserve))
	res.put("detect.explain_p50_us", "us", p50(kExplain))
	res.put("scrape.http_p50_us", "us", p50(kHTTP))
	res.put("scrape.http_p99_us", "us", mathx.Quantile(usOf(rep.durations[kHTTP]), 0.99))
	res.put("exporter.serve_p50_us", "us", p50(kServe))
	res.put("server.handle_p50_us", "us", p50(kHandle))
	for _, l := range layers {
		res.put("share."+l, "%", rep.Shares[l])
	}
	res.put("trace.dropped_spans", "count", float64(rep.Dropped))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
