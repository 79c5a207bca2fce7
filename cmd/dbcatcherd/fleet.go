// The daemon's run loop: N database units behind one bounded round
// scheduler (fleet.Monitor), one HTTP surface (server.Fleet) and, with
// -data-dir, one verdict journal (store.FleetPersister), for every -units
// value. One unit is a fleet of one; only its durable state layer differs:
// store.Persister snapshots its judge, so it resumes at the snapshot, and
// journals its thresholds, feedback and relearn events.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/fleet"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/relearn"
	"dbcatcher/internal/replicate"
	"dbcatcher/internal/rootcause"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/server"
	"dbcatcher/internal/store"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/tracefile"
	"dbcatcher/internal/window"
)

// feedbackCap bounds a unit's DBA judgment-record ring.
const feedbackCap = 512

// unitInput is one unit's data source: its series (a trace or a
// simulation), the injected anomaly labels, and the collector that replays
// the series under the fault plan. A unit that only scrapes external
// targets has none of them.
type unitInput struct {
	series    *timeseries.UnitSeries
	labels    *anomaly.Labels
	collector *cluster.Collector
}

// unitSeed is unit i's seed: the simulation draws from it, the anomaly
// schedule from +1, the injection from +2, the collector faults from +3
// and the scrape jitter from +4. Unit 0's seeds are the daemon's own.
func unitSeed(seed uint64, i int) uint64 { return seed + uint64(i)*1009 }

// buildInput builds unit i's input: the trace, or a simulation with
// failover and anomaly injection, replayed by a collector that applies the
// fault plan. An external-target unit gets the zero unitInput.
func buildInput(cfg *fleetConfig, i int) (unitInput, error) {
	if cfg.external() {
		return unitInput{}, nil
	}
	seed := unitSeed(cfg.seed, i)
	in := unitInput{series: cfg.series}
	if in.series == nil {
		sim := cluster.Config{
			Name: fmt.Sprintf("unit-%03d", i), Databases: cfg.dbs, Ticks: cfg.horizon,
			Profile: cfg.profile, Seed: seed,
		}
		if cfg.foTick > 0 {
			sim.Failover = &cluster.Failover{Tick: cfg.foTick, NewPrimary: cfg.foTarget}
		}
		u, err := cluster.Simulate(sim)
		if err != nil {
			return unitInput{}, err
		}
		if cfg.anomalies > 0 {
			events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
				Ticks: cfg.horizon, Databases: cfg.dbs, TargetRatio: cfg.anomalies,
			}, mathx.NewRNG(seed+1))
			if in.labels, err = anomaly.Inject(u, events, mathx.NewRNG(seed+2)); err != nil {
				return unitInput{}, err
			}
		}
		in.series = u.Series
	}
	plan := cfg.plan
	plan.Seed = seed + 3
	var err error
	in.collector, err = cluster.NewCollector(in.series, plan)
	return in, err
}

// runFleet builds the units, their scheduler, durable state and HTTP
// surface, feeds the units until ctx is done, and returns after the
// drain. It owns ln: it serves the API there, and closes it too when it
// returns a set-up error without serving.
func runFleet(ctx context.Context, ln net.Listener, cfg *fleetConfig) (err error) {
	// Until serving starts, a set-up error releases what is already open.
	var expLn net.Listener
	var st *store.Store
	serving := false
	defer func() {
		if !serving {
			ln.Close()
			if expLn != nil {
				expLn.Close()
			}
			if st != nil {
				st.Close()
			}
		}
	}()

	// The scheduler fans out across units; when it runs more than one at
	// once, a correlation pool nested inside each judge would only add
	// scheduling overhead. Verdicts are identical either way.
	pool := fleet.Resolve(cfg.fleetConc)
	workers := 0
	if min(cfg.units, pool) > 1 {
		workers = 1
	}
	switch {
	case cfg.series != nil:
		log.Printf("replaying trace %s: %d databases, %d ticks (anomaly injection off: the trace is the ground truth)",
			cfg.trace, cfg.dbs, cfg.horizon)
	case cfg.external():
		log.Printf("monitoring %d units x %d databases over external scrape targets, scheduler pool %d", cfg.units, cfg.dbs, pool)
	default:
		log.Printf("simulating %d units x %d databases, profile %v, %d ticks, scheduler pool %d",
			cfg.units, cfg.dbs, cfg.profile, cfg.horizon, pool)
	}

	inputs := make([]unitInput, cfg.units)
	onlines := make([]*monitor.Online, cfg.units)
	servers := make([]*server.Server, cfg.units)
	pushers := make([]fleet.Pusher, cfg.units)
	episodes, ratios := 0, 0.0
	for i := range inputs {
		if inputs[i], err = buildInput(cfg, i); err != nil {
			return fmt.Errorf("unit %d: %v", i, err)
		}
		if l := inputs[i].labels; l != nil {
			episodes += len(l.Events)
			ratios += l.Ratio()
		}
		onlines[i], err = monitor.NewOnline(detect.Config{
			Thresholds: window.DefaultThresholds(kpi.Count),
			Workers:    workers,
		}, kpi.Count, cfg.dbs)
		if err != nil {
			return fmt.Errorf("unit %d: %v", i, err)
		}
		servers[i] = server.New(onlines[i], fmt.Sprintf("unit-%03d", i), cfg.history)
		pushers[i] = servers[i]
	}
	if cfg.series == nil && !cfg.external() && cfg.anomalies > 0 {
		log.Printf("injected %d anomaly episodes (%.1f%% of ticks)", episodes, 100*ratios/float64(cfg.units))
	}
	if !cfg.plan.IsZero() {
		log.Printf("collector faults enabled (per-unit seeds): drop-tick=%.3f drop-cell=%.3f partial-row=%.3f stale=%.3f silences=%d",
			cfg.plan.DropTickRate, cfg.plan.DropCellRate, cfg.plan.PartialRowRate, cfg.plan.StaleRate, len(cfg.plan.Silences))
	}
	if cfg.foTick > 0 {
		log.Printf("failover scheduled: db%d promoted at tick %d", cfg.foTarget, cfg.foTick)
	}
	if cfg.traceRec != "" {
		if err := tracefile.WriteFile(cfg.traceRec, inputs[0].series); err != nil {
			return fmt.Errorf("recording trace: %v", err)
		}
		log.Printf("recorded the injected stream to %s (replay with -trace)", cfg.traceRec)
	}

	// Network scrape layer. With -scrape-addr (one unit) this process
	// exports the unit over HTTP, and the unit scrapes itself at /kpis, one
	// request per tick, unless -scrape-targets names other exporters; with
	// -scrape-targets alone each unit scrapes its own target group.
	var feed *scrape.Feed
	var expSrv *http.Server
	targets := cfg.targets
	if cfg.scrapeAddr != "" {
		feed = scrape.NewFeed(kpi.Count, cfg.dbs)
		exp := scrape.NewExporter(feed)
		if err := applyScrapeFaults(exp, cfg.scrapeFaults, cfg.dbs); err != nil {
			return err
		}
		if expLn, err = net.Listen("tcp", cfg.scrapeAddr); err != nil {
			return fmt.Errorf("scrape listener: %v", err)
		}
		expSrv = &http.Server{
			Handler: exp.Handler(),
			// No WriteTimeout: hang faults park responses on purpose; the
			// scraper's per-try deadline is the recovery mechanism.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		if targets == nil {
			port := expLn.Addr().(*net.TCPAddr).Port
			targets = [][]string{scrape.SelfTargets(fmt.Sprintf("http://127.0.0.1:%d", port), cfg.dbs)}
		}
		log.Printf("exporting %d databases on %v (the unit at /kpis, each database at /db/N/kpis)", cfg.dbs, expLn.Addr())
	}
	mon, err := fleet.NewMonitor(pushers, cfg.fleetConc)
	if err != nil {
		return err
	}
	var scrapers []*scrape.Scraper
	if targets != nil && !cfg.exportOnly {
		scrapers = make([]*scrape.Scraper, cfg.units)
		for i := range scrapers {
			sc := cfg.scrape
			sc.Targets = targets[i]
			sc.JitterSeed = unitSeed(cfg.seed, i) + 4
			if scrapers[i], err = scrape.New(sc); err != nil {
				return fmt.Errorf("unit %d scraper: %v", i, err)
			}
		}
		if err := mon.SetScrapers(scrapers); err != nil {
			return err
		}
		log.Printf("scrape ingestion: %d units x %d targets, format %v, round deadline %v, breaker %d fails / %d open rounds",
			cfg.units, cfg.dbs, cfg.scrape.Format, cfg.scrape.RoundTimeout, cfg.scrape.BreakerFailures, cfg.scrape.BreakerOpenRounds)
	}

	api := server.NewFleet(servers)
	if scrapers != nil {
		// One unit's scrape block is its scraper's health; a fleet's is the
		// per-unit list.
		api.SetScrape(func() interface{} {
			if len(scrapers) == 1 {
				return scrapers[0].Health()
			}
			healths := make([]interface{}, len(scrapers))
			for i, s := range scrapers {
				healths[i] = s.Health()
			}
			return healths
		})
	}

	// Incident aggregation (fleets only): dedup repeated per-tick verdicts
	// into incidents, cluster co-occurring anomalies across units, and
	// attribute each closed cluster to a probable origin. The feeder
	// observes every round; /api/incidents serves the result.
	var agg *incident.Aggregator
	newAggregator := func() *incident.Aggregator {
		return incident.New(incident.Config{
			ProximityTicks: cfg.incidentProx,
			CloseAfter:     cfg.incidentClose,
			MaxHistory:     cfg.incidentHist,
		})
	}
	if cfg.incidents {
		agg = newAggregator()
	}

	// Durable state: recover whatever a previous run persisted, journal
	// every unit's verdicts through one FleetPersister, and adopt the next
	// fencing epoch. Each unit's dedupe horizon suppresses re-journaling
	// (and re-publishing) verdicts that are already durable. One unit also
	// snapshots its judge and journals thresholds, feedback and relearn
	// events through store.Persister, and resumes one past the last
	// snapshot; a fleet replays detection from tick 0. Without -data-dir
	// everything stays in memory and the detection path is unchanged.
	var (
		rec   *store.Recovered
		pers  *store.Persister
		fp    *store.FleetPersister
		repl  *replicate.Server
		fb    *feedback.Store
		flush func() error
	)
	resume := 0
	if cfg.dataDir != "" {
		if st, rec, err = store.Open(cfg.dataDir, store.Options{Fsync: cfg.fsync}); err != nil {
			return err
		}
		fp = store.NewFleetPersister(st, rec)
		for i, s := range servers {
			s.RestoreHistory(rec.UnitVerdictHistory(i))
			onlines[i].SetPersister(fp.Unit(i))
		}
	}
	if cfg.units == 1 {
		fb = feedback.NewStoreFrom(feedbackCap, rec.FeedbackRecords())
		servers[0].SetFeedback(fb)
	}
	if fp != nil && cfg.units == 1 {
		online := onlines[0]
		if ms := rec.MonitorState(); ms != nil {
			if err := online.RestoreState(ms); err != nil {
				log.Printf("recovery: cannot resume detector state (%v); starting fresh", err)
			} else {
				resume = rec.ResumeTick()
			}
		} else if th := rec.LatestThresholds(); th != nil {
			if err := online.SetThresholds(*th); err != nil {
				log.Printf("recovery: persisted thresholds rejected: %v", err)
			}
		}
		pers = store.NewPersister(fp, rec, fb, cfg.snapEvery)
		online.SetPersister(pers)
		fb.SetJournal(pers)
		api.SetPersistence(pers.Status)
		flush = func() error { return pers.Flush(online) }
	} else if fp != nil {
		if agg != nil {
			// Rehydrate before any hook is attached: replayed transitions
			// must not be re-journaled or re-reported.
			if err := agg.Restore(rec.IncidentTransitions()); err != nil {
				log.Printf("recovery: incident journal rejected (%v); starting incident state fresh", err)
				agg = newAggregator()
			} else if h := agg.Horizon(); h > 0 {
				log.Printf("recovery: incident state rehydrated through round tick %d", h)
			}
		}
		api.SetPersistence(fp.Status)
		flush = fp.Flush
	}
	if st != nil {
		m := st.Metrics()
		log.Printf("durable state: dir=%s fsync=%s recovered %d records (resume tick %d, torn tail %v)",
			cfg.dataDir, cfg.fsync, m.RecoveredRecords, resume, m.TornTail)

		// Primary role: adopt the next fencing epoch durably (a promoted
		// standby's epoch is already in the recovered log, so a takeover
		// continues the sequence) and serve the WAL to warm standbys. With
		// a known peer, first prove our log is the newest history: a
		// crashed-and-failed-over primary restarted by its supervisor
		// would otherwise recompute LatestEpoch()+1 from its own stale log
		// and come back as a second primary at the new primary's epoch.
		next := rec.LatestEpoch() + 1
		if cfg.peer != "" {
			bootCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
			err := replicate.VerifyBootEpoch(bootCtx, nil, cfg.peer, next)
			cancel()
			if err != nil {
				return err
			}
		}
		if err := st.AdoptEpoch(next, rec.DurableTick()); err != nil {
			return fmt.Errorf("adopt epoch: %v", err)
		}
		epoch, _ := st.Epoch()
		log.Printf("primary role: serving replication at /replicate/ under epoch %d", epoch)
		repl = replicate.NewServer(st)
		api.SetReplication(repl.StatusBlock)
		api.SetRole(func() interface{} {
			e, fenced := st.Epoch()
			return map[string]interface{}{"role": "primary", "epoch": e, "fenced": fenced}
		})
	}

	// Hooks go on after Restore so replay is silent. The persist buffer
	// collects one round's transitions for a single atomic WAL record; it
	// is only touched from the feeder goroutine (ObserveRound runs there).
	var incBuf []incident.Transition
	if agg != nil {
		api.SetIncidents(agg)
		if fp != nil {
			agg.SetPersist(func(t incident.Transition) { incBuf = append(incBuf, t) })
		}
		agg.SetOnClusterClose(func(rep *incident.ClusterReport) {
			log.Printf("INCIDENT closed: %s", rootcause.AttributeFleet(rep).Summary)
		})
	}

	// The epoch guard and the feeder run until shutdown begins.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()

	// Epoch guard: while serving as primary with a known peer, keep the
	// pair's epochs converged — re-fence a peer stuck at an older epoch
	// (the partition-survivor zombie) and self-fence on observing the peer
	// at an equal-or-newer one (our history is the stale fork). This is
	// what makes the one-shot fence at promotion time safe to miss.
	var guard sync.WaitGroup
	if st != nil && cfg.peer != "" {
		g := replicate.NewGuard(st, replicate.GuardConfig{
			Peer: cfg.peer,
			Seed: cfg.seed + 6,
			OnSelfFence: func(peerEpoch uint64) {
				log.Printf("epoch guard: peer %s serves epoch %d >= ours; self-fenced — durable writes stop, /readyz flips unready", cfg.peer, peerEpoch)
				api.Invalidate()
			},
		})
		guard.Add(1)
		go func() {
			defer guard.Done()
			g.Run(runCtx)
		}()
		log.Printf("epoch guard: watching peer %s", cfg.peer)
	}

	// Readiness: the node should receive traffic once its feed is live and
	// has not terminally failed; a finished replay still serves history. A
	// fenced store means this node lost an epoch race — a load balancer
	// must stop sending it traffic even though the process is healthy.
	var feedFault atomic.Value
	api.SetReady(func() error {
		if st != nil {
			if e, fenced := st.Epoch(); fenced {
				return fmt.Errorf("fenced: a newer primary holds an epoch above %d", e)
			}
		}
		if v := feedFault.Load(); v != nil {
			return v.(error)
		}
		return nil
	})

	// Adaptive relearning (one unit): a supervised background loop watches
	// the correlation-distance drift signal and accumulated DBA
	// corrections, re-runs the threshold search in an isolated
	// deadline-bounded goroutine, validates candidates on a held-out
	// split, shadow-judges survivors on live traffic, and only then swaps
	// thresholds atomically. Every failure mode (panic, deadline,
	// regression, flip-budget breach) leaves the live thresholds untouched.
	var sup *relearn.Supervisor
	if cfg.relearn && !cfg.exportOnly {
		// The cooldown flag is wall-clock; the supervisor counts collection
		// ticks, which arrive every 5s/speedup.
		cooldownTicks := max(int(float64(cfg.relearnCool)*cfg.speedup/float64(5*time.Second)), 1)
		sup = relearn.NewSupervisor(relearn.Config{
			Q:             kpi.Count,
			Deadline:      cfg.relearnDL,
			CooldownTicks: cooldownTicks,
			ShadowTicks:   cfg.relearnShadow,
			Seed:          cfg.seed + 5,
		}, onlines[0], fb, relearn.SeriesSource{U: inputs[0].series})
		if pers != nil {
			sup.SetRecorder(pers)
		}
		servers[0].SetRelearn(func() interface{} { return sup.Status() }, sup.TriggerManual)
		log.Printf("relearn supervisor: deadline %v, cooldown %d ticks, shadow %d ticks",
			cfg.relearnDL, cooldownTicks, cfg.relearnShadow)
	}

	// -horizon bounds the input the daemon simulates or replays itself,
	// also when its own exporter serves it; external targets publish for
	// as long as they run, so a unit that only scrapes them runs until the
	// daemon stops.
	end := cfg.horizon
	if cfg.external() {
		end = math.MaxInt
	}
	if resume >= end {
		log.Printf("recovered state already covers the %d-tick horizon; serving history only", cfg.horizon)
	}
	// Fast-forward the deterministic collectors to the resume point so the
	// re-fed stream is tick-aligned with the persisted state.
	for _, in := range inputs {
		for t := 0; in.collector != nil && t < resume; t++ {
			if _, ok := in.collector.Next(); !ok {
				break
			}
		}
	}
	failover := func() {
		// The detector follows the promotion so R-R KPIs are judged
		// against the correct peer set.
		for _, o := range onlines {
			if err := o.SetPrimary(cfg.foTarget); err != nil {
				log.Printf("failover: %v", err)
				return
			}
		}
		log.Printf("failover: detector now treats db%d as primary", cfg.foTarget)
	}
	if cfg.foTick > 0 && cfg.foTick <= resume {
		failover()
	}

	done := make(chan struct{})

	// Feeder: one lock-step collection round per tick across every unit.
	// Collector faults and exporter misbehaviour degrade individual units'
	// verdicts; a round error (a pipeline bug, not a data fault) stops the
	// feeder and flips readiness.
	go func() {
		defer close(done)
		interval := time.Duration(float64(5*time.Second) / cfg.speedup)
		samples := make([][][]float64, cfg.units)
		var events []incident.Event
		verdictCount, abnormalCount := 0, 0
		var degraded logSample
		var lines verdictLines
		fail := func(stage string, err error) {
			log.Printf("%s: %v", stage, err)
			feedFault.Store(fmt.Errorf("feed stopped: %s: %v", stage, err))
		}
	ticks:
		for tick := resume; tick < end; tick++ {
			if runCtx.Err() != nil {
				return
			}
			if cfg.foTick > 0 && tick == cfg.foTick {
				failover()
			}
			for i, in := range inputs {
				if in.collector == nil {
					continue
				}
				sample, ok := in.collector.Next()
				if !ok {
					log.Printf("unit %d collector exhausted at tick %d", i, tick)
					break ticks
				}
				samples[i] = sample
			}
			if feed != nil {
				if err := feed.Publish(tick, samples[0]); err != nil {
					fail("publish", err)
					return
				}
			}
			if cfg.exportOnly {
				time.Sleep(interval)
				continue
			}
			var verdicts []*monitor.Verdict
			var err error
			if scrapers != nil {
				var reports []scrape.RoundReport
				verdicts, reports, err = mon.ScrapeRound(context.Background())
				if err != nil {
					fail("scrape round", err)
					return
				}
				for unit, rep := range reports {
					if (rep.Late || rep.Missing > 0) && degraded.next() {
						log.Printf("scrape round %d unit %d: %d/%d targets arrived (breaker-skipped %d, late %v)",
							rep.Round, unit, rep.Arrived, scrapers[unit].Targets(), rep.Skipped, rep.Late)
					}
				}
			} else if verdicts, err = mon.Push(samples); err != nil {
				fail("push", err)
				return
			}
			events = events[:0]
			for unit, v := range verdicts {
				if v == nil {
					continue
				}
				verdictCount++
				if sup != nil {
					sup.ObserveVerdict(v)
				}
				labels := inputs[unit].labels
				if cfg.targets != nil {
					labels = nil // the unit judges the targets' stream, not the local one
				}
				lines.write(unit, v, labels)
				if v.Abnormal {
					abnormalCount++
					if agg != nil {
						events = append(events, incident.Event{
							Unit:  unit,
							DB:    v.AbnormalDB,
							KPIs:  deviatingKPIs(onlines[unit], v),
							Start: v.Start,
							End:   v.Start + v.Size,
						})
					}
				}
			}
			if agg != nil {
				// One ObserveRound per round, journaled as one atomic WAL
				// record: a crash loses whole rounds off the tail, never part
				// of one. Rounds at or below the rehydrated horizon are
				// skipped inside the aggregator, so post-restart catch-up
				// re-emits (and re-journals) nothing.
				incBuf = incBuf[:0]
				agg.ObserveRound(tick, events)
				if fp != nil {
					fp.RecordIncidentRound(tick, incBuf)
				}
			}
			if tick > 0 && tick%1000 == 0 {
				log.Printf("tick %d: %d verdicts so far, %d abnormal", tick, verdictCount, abnormalCount)
			}
			time.Sleep(interval)
		}
		log.Printf("replay finished: %d rounds, %d verdicts, %d abnormal", mon.Ticks(), verdictCount, abnormalCount)
		if agg != nil {
			s := agg.Status()
			log.Printf("incident state: %d open / %d closed incidents in %d open / %d closed clusters (%d verdicts merged)",
				s.OpenIncidents, s.ClosedIncidents, s.OpenClusters, s.ClosedClusters, s.Merged)
		}
	}()

	// Real serving timeouts: a stuck or malicious client cannot pin a
	// connection open forever (the zero-value http.Server would let it).
	handler := api.Handler()
	if repl != nil {
		// Replication rides on the API listener: standbys fetch the WAL
		// from /replicate/, everything else stays on the API mux.
		outer := http.NewServeMux()
		outer.Handle("/replicate/", repl.Handler())
		outer.Handle("/", handler)
		handler = outer
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serving = true
	failed := make(chan error, 2)
	if expSrv != nil {
		go func() {
			if err := expSrv.Serve(expLn); err != http.ErrServerClosed {
				failed <- fmt.Errorf("exporter: %v", err)
			}
		}()
	}
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			failed <- err
		}
	}()
	log.Printf("listening on %s", ln.Addr())

	select {
	case <-ctx.Done():
	case err = <-failed:
	}
	// Graceful shutdown: stop the feeder, drain in-flight responses with a
	// deadline, then flush the final durable state so the next boot
	// resumes exactly here.
	log.Printf("shutting down: draining and flushing durable state")
	stopRun()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		log.Printf("feeder did not drain in time")
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if expSrv != nil {
		if err := expSrv.Shutdown(drainCtx); err != nil {
			log.Printf("exporter shutdown: %v", err)
		}
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if sup != nil {
		// Cancel any in-flight search and join its goroutine before the
		// final flush so the snapshot reflects a settled judge.
		sup.Stop()
	}
	guard.Wait()
	if flush != nil {
		if err := flush(); err != nil {
			log.Printf("flush: %v", err)
		}
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
	return err
}

// logSample counts one kind of repeated log line and reports whether the
// next occurrence is logged: the first ten, then every hundredth. A dead
// target or a faulted fleet must not flood the journal one line per unit
// per tick.
type logSample int

func (n *logSample) next() bool {
	*n++
	return *n <= 10 || *n%100 == 0
}

// verdictLines logs the units' skipped rounds and abnormal verdicts, each
// kind sampled across the whole daemon.
type verdictLines struct{ skipped, abnormal logSample }

// write logs v if it is a skipped round or an abnormal verdict that its
// kind's sample admits; an abnormal line is tagged when the unit's
// injected anomalies cover the window.
func (l *verdictLines) write(unit int, v *monitor.Verdict, labels *anomaly.Labels) {
	switch {
	case v.Health == detect.HealthSkipped:
		if !l.skipped.next() {
			return
		}
		log.Printf("unit-%03d SKIPPED round: window [%d, %d) lost to collector faults", unit, v.Start, v.Start+v.Size)
	case v.Abnormal:
		if !l.abnormal.next() {
			return
		}
		truth := ""
		if labels != nil && tickAbnormal(labels, v.Start, v.Size) {
			truth = " (matches injected anomaly)"
		}
		degraded := ""
		if v.Health == detect.HealthDegraded {
			degraded = fmt.Sprintf(" [degraded: %d gap cells]", v.GapCells)
		}
		log.Printf("unit-%03d ABNORMAL verdict: window [%d, %d) db=%d%s%s",
			unit, v.Start, v.Start+v.Size, v.AbnormalDB, truth, degraded)
	}
}

// deviatingKPIs attributes an abnormal verdict to the indicators that broke
// correlation: the flagged database's level-1 and level-2 KPIs in the
// evidence of the judgment that decided it. Only the unit's newest judged
// verdict carries evidence; any other verdict opens its incident
// unattributed rather than borrowing a later round's.
func deviatingKPIs(o *monitor.Online, v *monitor.Verdict) incident.KPISet {
	last, exps := o.Explain()
	if last != v || v.AbnormalDB < 0 {
		return 0
	}
	var set incident.KPISet
	for _, k := range exps[v.AbnormalDB].Culprits() {
		set = set.With(int(k))
	}
	return set
}
