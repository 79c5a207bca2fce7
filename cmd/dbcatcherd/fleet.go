// Fleet mode: one daemon monitoring N simulated database units behind a
// single bounded round scheduler (fleet.Monitor), with every unit's
// verdict stream journaled into one multiplexed WAL and the aggregated
// /api/fleet endpoints serving region-wide totals and per-unit drill-down.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/fleet"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/replicate"
	"dbcatcher/internal/rootcause"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/server"
	"dbcatcher/internal/store"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// maxFleetUnits bounds -units: each unit carries rings, a judge, and a
// verdict buffer, and the simulator pre-generates its whole series.
const maxFleetUnits = 4096

type fleetConfig struct {
	addr        string
	units       int
	dbs         int
	profile     workload.Profile
	seed        uint64
	speedup     float64
	anomalies   float64
	horizon     int
	workers     int                // per-unit correlation pool; 0 = auto
	fleetConc   int                // scheduler pool; 0 = GOMAXPROCS
	history     int                // verdict buffer per unit
	plan        workload.FaultPlan // template; seeded per unit
	dataDir     string
	fsyncPolicy string
	peer        string // HA counterpart base URL ("" = no epoch guard)

	incidents     bool // fleet incident aggregation stage
	incidentProx  int  // cross-unit clustering proximity (ticks)
	incidentClose int  // quiet ticks before an incident closes
	incidentHist  int  // closed clusters retained for paging

	// scrapeTargets switches the fleet's feed from the in-process simulation
	// to real HTTP scrape rounds: one target list per unit, each scraped by
	// that unit's own scraper (own breakers, retry budgets, stale markdown)
	// so a broken exporter degrades only its unit. scrape is the shared
	// tuning/format template; Targets and JitterSeed are filled per unit.
	scrapeTargets [][]string
	scrape        scrape.Config
}

func runFleet(cfg fleetConfig) {
	scrapeMode := cfg.scrapeTargets != nil
	log.Printf("fleet mode: %d units x %d databases, profile %v, %d ticks, scheduler pool %d",
		cfg.units, cfg.dbs, cfg.profile, cfg.horizon, fleet.Resolve(cfg.fleetConc))

	// The scheduler already fans out across units; nesting a correlation
	// pool inside each judge would only add scheduling overhead. Verdicts
	// are identical either way.
	workers := cfg.workers
	if workers == 0 && fleet.Resolve(cfg.fleetConc) > 1 {
		workers = 1
	}

	collectors := make([]*cluster.Collector, cfg.units)
	onlines := make([]*monitor.Online, cfg.units)
	servers := make([]*server.Server, cfg.units)
	pushers := make([]fleet.Pusher, cfg.units)
	totalAnomalies := 0
	for i := 0; i < cfg.units; i++ {
		name := fmt.Sprintf("unit-%03d", i)
		seed := cfg.seed + uint64(i)*1009
		// In scrape mode the units' history lives behind their exporters;
		// there is nothing to simulate or inject here.
		if !scrapeMode {
			u, err := cluster.Simulate(cluster.Config{
				Name: name, Databases: cfg.dbs, Ticks: cfg.horizon,
				Profile: cfg.profile, Seed: seed,
			})
			if err != nil {
				log.Fatalf("dbcatcherd: unit %d: %v", i, err)
			}
			if cfg.anomalies > 0 {
				events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
					Ticks: cfg.horizon, Databases: cfg.dbs, TargetRatio: cfg.anomalies,
				}, mathx.NewRNG(seed+1))
				labels, err := anomaly.Inject(u, events, mathx.NewRNG(seed+2))
				if err != nil {
					log.Fatalf("dbcatcherd: unit %d: %v", i, err)
				}
				totalAnomalies += len(labels.Events)
			}
			plan := cfg.plan
			plan.Seed = seed + 3
			collectors[i], err = cluster.NewCollector(u.Series, plan)
			if err != nil {
				log.Fatalf("dbcatcherd: unit %d: %v", i, err)
			}
		}
		var err error
		onlines[i], err = monitor.NewOnline(detect.Config{
			Thresholds: window.DefaultThresholds(kpi.Count),
			Workers:    workers,
		}, kpi.Count, cfg.dbs)
		if err != nil {
			log.Fatalf("dbcatcherd: unit %d: %v", i, err)
		}
		servers[i] = server.New(onlines[i], name, cfg.history)
		pushers[i] = servers[i]
	}
	if cfg.anomalies > 0 {
		log.Printf("injected %d anomaly episodes across the fleet", totalAnomalies)
	}
	if !cfg.plan.IsZero() {
		log.Printf("collector faults enabled on every unit (per-unit seeds): drop-tick=%.3f drop-cell=%.3f partial-row=%.3f stale=%.3f silences=%d",
			cfg.plan.DropTickRate, cfg.plan.DropCellRate, cfg.plan.PartialRowRate, cfg.plan.StaleRate, len(cfg.plan.Silences))
	}

	// Incident aggregation (optional): dedup repeated per-tick verdicts into
	// incidents, cluster co-occurring anomalies across units, and attribute
	// each closed cluster to a probable origin. The aggregator is fed by the
	// feeder after every fleet round and served via /api/incidents.
	var agg *incident.Aggregator
	if cfg.incidents {
		agg = incident.New(incident.Config{
			ProximityTicks: cfg.incidentProx,
			CloseAfter:     cfg.incidentClose,
			MaxHistory:     cfg.incidentHist,
		})
	}

	// Durable state: one multiplexed WAL holds every unit's verdict stream
	// (unit-keyed records). Fleet mode journals judgments rather than full
	// judge state: after a restart detection replays deterministically from
	// tick 0 and the per-unit dedupe horizons suppress re-journaling (and
	// re-publishing) verdicts that are already durable.
	var st *store.Store
	var fp *store.FleetPersister
	var repl *replicate.Server
	if cfg.dataDir != "" {
		policy, err := store.ParsePolicy(cfg.fsyncPolicy)
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		var rec *store.Recovered
		st, rec, err = store.Open(cfg.dataDir, store.Options{Fsync: policy})
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		fp = store.NewFleetPersister(st, rec)
		recovered := 0
		for i := range servers {
			hist := rec.UnitVerdictHistory(i)
			recovered += len(hist)
			servers[i].RestoreHistory(hist)
			onlines[i].SetPersister(fp.Unit(i))
		}
		if agg != nil {
			// Rehydrate before any hook is attached: replayed transitions
			// must not be re-journaled or re-reported.
			if err := agg.Restore(rec.IncidentTransitions()); err != nil {
				log.Printf("recovery: incident journal rejected (%v); starting incident state fresh", err)
				agg = incident.New(incident.Config{
					ProximityTicks: cfg.incidentProx,
					CloseAfter:     cfg.incidentClose,
					MaxHistory:     cfg.incidentHist,
				})
			} else if h := agg.Horizon(); h > 0 {
				log.Printf("recovery: incident state rehydrated through round tick %d", h)
			}
		}
		m := st.Metrics()
		log.Printf("durable fleet state: dir=%s fsync=%s recovered %d verdicts across units (torn tail %v)",
			cfg.dataDir, policy, recovered, m.TornTail)

		// Primary role: adopt the next fencing epoch and serve the fleet's
		// multiplexed WAL to warm standbys at /replicate/. With a known
		// peer, refuse the boot if the peer already holds an equal-or-newer
		// epoch (a restarted, already-failed-over primary must not come
		// back as a second primary).
		next := rec.LatestEpoch() + 1
		if cfg.peer != "" {
			bootCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			err := replicate.VerifyBootEpoch(bootCtx, nil, cfg.peer, next)
			cancel()
			if err != nil {
				log.Fatalf("dbcatcherd: %v", err)
			}
		}
		if err := st.AdoptEpoch(next, 0); err != nil {
			log.Fatalf("dbcatcherd: adopt epoch: %v", err)
		}
		epoch, _ := st.Epoch()
		log.Printf("fleet primary role: serving replication at /replicate/ under epoch %d", epoch)
		repl = replicate.NewServer(st)
	}

	// Hooks go on after Restore so replay is silent. The persist buffer
	// collects one round's transitions for a single atomic WAL record; it is
	// only touched from the feeder goroutine (ObserveRound runs there).
	var incBuf []incident.Transition
	if agg != nil {
		if fp != nil {
			agg.SetPersist(func(t incident.Transition) { incBuf = append(incBuf, t) })
		}
		agg.SetOnClusterClose(func(rep *incident.ClusterReport) {
			log.Printf("INCIDENT closed: %s", rootcause.AttributeFleet(rep).Summary)
		})
	}

	mon, err := fleet.NewMonitor(pushers, cfg.fleetConc)
	if err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}
	var scrapers []*scrape.Scraper
	if scrapeMode {
		scrapers = make([]*scrape.Scraper, cfg.units)
		for i := range scrapers {
			sc := cfg.scrape
			sc.Targets = cfg.scrapeTargets[i]
			sc.JitterSeed = cfg.seed + uint64(i)*1009 + 4
			scrapers[i], err = scrape.New(sc)
			if err != nil {
				log.Fatalf("dbcatcherd: unit %d scraper: %v", i, err)
			}
		}
		if err := mon.SetScrapers(scrapers); err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		log.Printf("fleet scrape ingestion: %d units x %d targets, format %v, round deadline %v",
			cfg.units, cfg.dbs, cfg.scrape.Format, cfg.scrape.RoundTimeout)
	}
	api := server.NewFleet(servers)
	if repl != nil {
		api.SetReplication(repl.StatusBlock)
	}
	if scrapers != nil {
		api.SetScrape(func() interface{} {
			healths := make([]interface{}, len(scrapers))
			for i, s := range scrapers {
				healths[i] = s.Health()
			}
			return healths
		})
	}
	if fp != nil {
		api.SetPersistence(fp.Status)
	}
	if agg != nil {
		api.SetIncidents(agg)
	}
	if st != nil {
		api.SetRole(func() interface{} {
			e, fenced := st.Epoch()
			return map[string]interface{}{"role": "primary", "epoch": e, "fenced": fenced}
		})
	}
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

	// Epoch guard: keep the HA pair's epochs converged while serving (see
	// the single-unit daemon for the full rationale).
	guardCtx, guardCancel := context.WithCancel(context.Background())
	defer guardCancel()
	if st != nil && cfg.peer != "" {
		g := replicate.NewGuard(st, replicate.GuardConfig{
			Peer: cfg.peer,
			Seed: cfg.seed + 6,
			OnSelfFence: func(peerEpoch uint64) {
				log.Printf("epoch guard: peer %s serves epoch %d >= ours; self-fenced — durable writes stop, /readyz flips unready", cfg.peer, peerEpoch)
			},
		})
		go g.Run(guardCtx)
		log.Printf("epoch guard: watching peer %s", cfg.peer)
	}

	stop := make(chan struct{})
	done := make(chan struct{})

	// Feeder: one lock-step collection round per tick across the whole
	// fleet. Collector faults degrade individual units' verdicts; a
	// scheduler error (a pipeline bug, not a data fault) stops the feeder.
	go func() {
		defer close(done)
		interval := time.Duration(float64(5*time.Second) / cfg.speedup)
		samples := make([][][]float64, cfg.units)
		verdictCount, abnormalCount, degradedRounds := 0, 0, 0
		end := feedEnd(cfg.horizon, "", scrapeMode)
		for tick := 0; tick < end; tick++ {
			select {
			case <-stop:
				return
			default:
			}
			var verdicts []*monitor.Verdict
			var err error
			if scrapeMode {
				// One batched round over the wire; exporter misbehaviour
				// degrades individual units' verdicts via their scrapers'
				// NaN gaps, never the round itself.
				var reports []scrape.RoundReport
				verdicts, reports, err = mon.ScrapeRound(context.Background())
				if err != nil {
					log.Printf("fleet scrape round: %v", err)
					feedFault.Store(fmt.Errorf("feed stopped: fleet scrape round: %v", err))
					return
				}
				for unit, rep := range reports {
					if rep.Late || rep.Missing > 0 {
						degradedRounds++
						// Sampled like the single-unit daemon: a dead exporter
						// must not flood the journal one line per unit-tick.
						if degradedRounds <= 10 || degradedRounds%100 == 0 {
							log.Printf("fleet scrape round %d unit %d: %d/%d targets arrived (breaker-skipped %d, late %v)",
								rep.Round, unit, rep.Arrived, cfg.dbs, rep.Skipped, rep.Late)
						}
					}
				}
			} else {
				for i, c := range collectors {
					sample, ok := c.Next()
					if !ok {
						log.Printf("unit %d collector exhausted at tick %d", i, tick)
						return
					}
					samples[i] = sample
				}
				verdicts, err = mon.Push(samples)
			}
			if err != nil {
				log.Printf("fleet round: %v", err)
				feedFault.Store(fmt.Errorf("feed stopped: fleet round: %v", err))
				return
			}
			var events []incident.Event
			for unit, v := range verdicts {
				if v == nil {
					continue
				}
				verdictCount++
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
				// One ObserveRound per fleet round, journaled as one atomic
				// WAL record: a crash loses whole rounds off the tail, never
				// part of one. Rounds at or below the rehydrated horizon are
				// skipped inside the aggregator, so post-restart catch-up
				// re-emits (and re-journals) nothing.
				incBuf = incBuf[:0]
				agg.ObserveRound(tick, events)
				if fp != nil {
					fp.RecordIncidentRound(tick, incBuf)
				}
			}
			if tick > 0 && tick%1000 == 0 {
				log.Printf("fleet tick %d: %d verdicts so far, %d abnormal", tick, verdictCount, abnormalCount)
			}
			time.Sleep(interval)
		}
		log.Printf("fleet replay finished: %d rounds, %d verdicts, %d abnormal",
			mon.Ticks(), verdictCount, abnormalCount)
		if agg != nil {
			s := agg.Status()
			log.Printf("incident state: %d open / %d closed incidents in %d open / %d closed clusters (%d verdicts merged)",
				s.OpenIncidents, s.ClosedIncidents, s.OpenClusters, s.ClosedClusters, s.Merged)
		}
	}()

	handler := api.Handler()
	if repl != nil {
		outer := http.NewServeMux()
		outer.Handle("/replicate/", repl.Handler())
		outer.Handle("/", handler)
		handler = outer
	}
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
		sig := <-sigc
		log.Printf("received %v: draining and flushing fleet state", sig)
		close(stop)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			log.Printf("feeder did not drain in time")
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if fp != nil {
			if err := fp.Flush(); err != nil {
				log.Printf("flush: %v", err)
			}
		}
		if st != nil {
			if err := st.Close(); err != nil {
				log.Printf("close: %v", err)
			}
		}
	}()

	endpoints := "/api/fleet/status, /api/fleet/verdicts?unit=N"
	if agg != nil {
		endpoints += ", /api/incidents"
	}
	log.Printf("fleet API listening on %s (%s)", cfg.addr, endpoints)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("dbcatcherd: %v", err)
	}
	<-shutdownDone
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
