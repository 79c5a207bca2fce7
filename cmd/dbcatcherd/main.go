// Command dbcatcherd is the online monitoring daemon: it simulates a
// cloud-database unit (with optional injected anomalies), streams its KPI
// samples through the DBCatcher detector, and serves status, verdicts,
// thresholds, and DBA feedback over HTTP.
//
// With -data-dir the detector's state is durable: verdicts, feedback
// records, and threshold swaps are written to a CRC-checked WAL and the
// judge's full state to atomic snapshots, so a restart resumes detection
// one past the last persisted tick instead of resetting to factory
// thresholds. SIGTERM/SIGINT drain in-flight API responses and flush a
// final snapshot before exit.
//
// With -scrape-addr the collection path is a real network pipeline: every
// database is exported as an HTTP scrape target (/db/N/kpis) and ingestion
// runs exporter → deadline-driven scraper (retries, backoff, per-target
// circuit breakers) → degraded monitor. -scrape-fault injects exporter
// misbehaviour (hangs, 5xx, truncated JSON, drops) to watch the pipeline
// degrade and recover; /api/status reports per-target scrape health. A
// second process can run -scrape-addr :9101 -export-only while this one
// scrapes it via -scrape-targets.
//
// With -relearn a supervised background loop adapts the detection
// thresholds to drift: a Page-Hinkley test on the correlation distance and
// accumulated DBA corrections trigger a deadline-bounded threshold search,
// candidates are validated on a held-out split of the judgment records,
// shadow-judged against the live thresholds for -relearn-shadow-ticks
// ticks, and promoted only if the verdict-flip rate stays within budget —
// otherwise they are rolled back and the live thresholds stand untouched.
//
// Usage:
//
//	dbcatcherd -addr :8080 -profile tencent-irregular -speedup 100 \
//	    -data-dir /var/lib/dbcatcher -fsync-policy interval
//
// Then:
//
//	curl localhost:8080/api/status
//	curl localhost:8080/api/verdicts?limit=10
//	curl localhost:8080/api/thresholds
//	curl -X POST localhost:8080/api/feedback -d '{"start":0,"size":20,"predicted":false,"actual":false}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/feedback"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/relearn"
	"dbcatcher/internal/replicate"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/server"
	"dbcatcher/internal/store"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/tracefile"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		profile   = flag.String("profile", "tencent-irregular", "workload profile: tencent-irregular, tencent-periodic, sysbench-i, sysbench-ii, tpcc-i, tpcc-ii")
		dbs       = flag.Int("dbs", 5, "databases in the unit")
		seed      = flag.Uint64("seed", 1, "random seed")
		speedup   = flag.Float64("speedup", 100, "simulation speed multiplier (1 = real-time 5 s ticks)")
		anomalies = flag.Float64("anomaly-ratio", 0.03, "fraction of abnormal ticks injected into the stream")
		horizon   = flag.Int("horizon", 17280, "ticks to pre-simulate (default 24 h); bounds simulated and trace input only: external scrape targets (-fleet-scrape-targets, or -scrape-targets without -scrape-addr) are scraped until the daemon stops")
		foTick    = flag.Int("failover-tick", 0, "tick at which a failover promotes a replica (0 = none)")
		foTarget  = flag.Int("failover-target", 1, "replica promoted at -failover-tick")
		conc      = flag.Int("concurrency", 0, "correlation worker pool per window (0 = GOMAXPROCS, 1 = serial; it runs only above 50,000 KPI x pair x point cells, never at the default 5 databases; verdicts identical)")

		faultDropTick = flag.Float64("fault-drop-tick", 0, "probability a whole collection tick is lost")
		faultDropCell = flag.Float64("fault-drop-cell", 0, "per-cell probability a (KPI, database) point is lost")
		faultPartial  = flag.Float64("fault-partial-row", 0, "per-KPI probability a row arrives truncated")
		faultStale    = flag.Float64("fault-stale", 0, "probability a tick is re-delivered stale")
		faultSilences = flag.String("fault-silence", "", "scheduled database outages as db:start:length[,db:start:length...]")

		dataDir     = flag.String("data-dir", "", "durable state directory (empty = in-memory only)")
		fsyncPolicy = flag.String("fsync-policy", "interval", "WAL durability: always, interval, never")
		snapEvery   = flag.Int("snapshot-every", 1, "verdicts between state snapshots (threshold swaps always snapshot)")

		follow       = flag.String("follow", "", "warm-standby mode: tail this primary's base URL into -data-dir and serve probes only; detection starts after promotion")
		followPoll   = flag.Duration("follow-poll", 500*time.Millisecond, "follower tail poll interval")
		promoteAfter = flag.Duration("promote-after", 0, "auto-promote after this long without primary contact (0 = manual POST /api/promote only)")
		staleBudget  = flag.Duration("staleness-budget", 5*time.Second, "replication lag budget before a follower's /readyz reports unready")
		peer         = flag.String("peer", "", "HA counterpart base URL: a booting primary refuses to serve if the peer already holds an equal-or-newer fencing epoch, and while serving it runs the epoch guard (re-fences a stale peer, self-fences on seeing a newer one); a promoted standby defaults this to the old primary's URL")

		scrapeAddr    = flag.String("scrape-addr", "", "serve the unit's per-DB KPI exporter on this address and ingest over HTTP scrape instead of the in-process collector")
		scrapeTargets = flag.String("scrape-targets", "", "comma-separated external scrape target URLs, one per database in order (overrides self-scrape; pair with a -scrape-addr -export-only process)")
		exportOnly    = flag.Bool("export-only", false, "with -scrape-addr: only publish and export KPIs, skip detection (a second dbcatcherd scrapes this one via -scrape-targets)")

		scrapeRoundTO  = flag.Duration("scrape-round-timeout", 2*time.Second, "collection deadline per tick; late targets become NaN gaps")
		scrapeTryTO    = flag.Duration("scrape-try-timeout", 0, "per-attempt HTTP timeout (0 = round timeout / 4)")
		scrapeAttempts = flag.Int("scrape-attempts", 3, "attempts per target per round (first try plus retries)")
		scrapeBrkFails = flag.Int("scrape-breaker-failures", 3, "consecutive failed rounds before a target's circuit breaker opens")
		scrapeBrkOpen  = flag.Int("scrape-breaker-open", 5, "rounds an open breaker skips before its half-open probe")
		scrapeStale    = flag.Int("scrape-stale-rounds", 3, "rounds a target may re-serve the same tick before it is marked down")
		scrapeConc     = flag.Int("scrape-concurrency", 0, "fetches in flight per scrape round, on the feeding goroutine plus up to N-1 it starts (0 = all targets, capped at 16)")
		scrapeFaults   = flag.String("scrape-fault", "", "exporter fault script: db:mode[:count],... (modes: hang, 5xx, truncate, garbage, drop, flap, stale, format-flip)")
		scrapeFormat   = flag.String("scrape-format", "json", "scrape wire format negotiated with every target: json (bespoke payload) or prom (Prometheus text exposition)")

		trace    = flag.String("trace", "", "replay a recorded KPI trace (CSV, see internal/tracefile) through the full pipeline instead of simulating; the trace fixes -dbs and -horizon")
		traceRec = flag.String("trace-record", "", "write the simulated (and anomaly-injected) KPI stream to this CSV trace on startup; replay it later with -trace")

		units           = flag.Int("units", 1, "database units to monitor; >1 runs the sharded fleet scheduler with the aggregated /api/fleet endpoints")
		fleetScrapeSpec = flag.String("fleet-scrape-targets", "", "fleet scrape ingestion: unit target groups separated by ';', each group one exporter base URL (expanded to /db/N/kpis) or a comma-separated list of exactly -dbs URLs; replaces the simulated feed (requires -units > 1)")
		fleetConc       = flag.Int("fleet-concurrency", 0, "fleet round scheduler worker pool (0 = GOMAXPROCS); per-unit verdicts are identical at any setting")
		fleetHist       = flag.Int("fleet-history", 128, "verdict history buffer per fleet unit")

		incidentsOn   = flag.Bool("incidents", false, "fleet incident aggregation: dedup repeated verdicts into incidents, cluster co-occurring anomalies across units, serve /api/incidents (requires -units > 1)")
		incidentProx  = flag.Int("incident-proximity", 32, "ticks within which anomalies on different units join one fleet incident cluster")
		incidentClose = flag.Int("incident-close-after", 64, "quiet ticks after an incident's last sighting before it closes")
		incidentHist  = flag.Int("incident-history", 256, "closed incident clusters retained for /api/incidents paging")

		relearnOn     = flag.Bool("relearn", false, "enable the drift-triggered adaptive threshold relearning supervisor")
		relearnDL     = flag.Duration("relearn-deadline", 30*time.Second, "wall-clock budget for one background threshold search")
		relearnCool   = flag.Duration("relearn-cooldown", 2*time.Minute, "minimum gap between retrain attempts (converted to ticks at the replay rate)")
		relearnShadow = flag.Int("relearn-shadow-ticks", 100, "live ticks a validated candidate is shadow-judged before promotion")
	)
	flag.Parse()

	if err := checkRunFlags(*dbs, *trace != "", *speedup); err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}
	p, err := parseProfile(*profile)
	if err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}
	format, err := scrape.ParseFormat(*scrapeFormat)
	if err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}

	// peerURL is the HA counterpart this node compares fencing epochs
	// against: the -peer flag, or — after a takeover — the primary we just
	// tailed, so the freshly promoted node guards against its old primary
	// coming back without any extra configuration.
	peerURL := strings.TrimRight(*peer, "/")

	// Warm-standby phase: tail the primary until promotion (manual or
	// missed-heartbeat), then fall through into the normal startup below —
	// the promoted mirror recovers exactly like a restarted primary and
	// the feed resumes from the last durable tick.
	if *follow != "" {
		if *dataDir == "" {
			log.Fatalf("dbcatcherd: -follow requires -data-dir (the WAL mirror lives there)")
		}
		if *exportOnly || *scrapeTargets != "" {
			log.Fatalf("dbcatcherd: -follow cannot be combined with -export-only or -scrape-targets")
		}
		policy, err := store.ParsePolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		promoted := runFollower(followerConfig{
			primary:      strings.TrimRight(*follow, "/"),
			dir:          *dataDir,
			addr:         *addr,
			poll:         *followPoll,
			budget:       *staleBudget,
			promoteAfter: *promoteAfter,
			seed:         *seed,
		}, store.Options{Fsync: policy})
		if !promoted {
			return // clean standby shutdown
		}
		if peerURL == "" {
			peerURL = strings.TrimRight(*follow, "/")
		}
		log.Printf("takeover: restarting the monitoring stack from the promoted mirror")
	}

	// Fleet mode: N simulated units behind one bounded round scheduler and
	// the aggregated /api/fleet surface. The single-unit integrations that
	// assume exactly one judge (network scrape wiring, relearning,
	// failover scheduling) are rejected rather than silently applied to
	// unit 0 only; collector faults and persistence compose with the
	// fleet.
	if *units > 1 {
		if *units > maxFleetUnits {
			log.Fatalf("dbcatcherd: -units %d exceeds the %d-unit bound", *units, maxFleetUnits)
		}
		for flagName, set := range map[string]bool{
			"-scrape-addr":    *scrapeAddr != "",
			"-scrape-targets": *scrapeTargets != "",
			"-scrape-fault":   *scrapeFaults != "",
			"-export-only":    *exportOnly,
			"-relearn":        *relearnOn,
			"-failover-tick":  *foTick > 0,
			"-trace":          *trace != "",
			"-trace-record":   *traceRec != "",
		} {
			if set {
				log.Fatalf("dbcatcherd: %s is single-unit only; it cannot be combined with -units > 1", flagName)
			}
		}
		plan := workload.FaultPlan{
			DropTickRate:   *faultDropTick,
			DropCellRate:   *faultDropCell,
			PartialRowRate: *faultPartial,
			StaleRate:      *faultStale,
		}
		plan.Silences, err = parseSilences(*faultSilences)
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		var fleetTargets [][]string
		if *fleetScrapeSpec != "" {
			// Collector faults shape the simulated feed; in fleet scrape mode
			// the data arrives over the wire, so a fault plan would silently
			// do nothing. Script exporter faults on the exporting daemons.
			if !plan.IsZero() {
				log.Fatalf("dbcatcherd: collector fault flags cannot be combined with -fleet-scrape-targets (inject faults on the exporters instead)")
			}
			fleetTargets, err = parseFleetTargets(*fleetScrapeSpec, *units, *dbs)
			if err != nil {
				log.Fatalf("dbcatcherd: %v", err)
			}
		}
		runFleet(fleetConfig{
			addr:          *addr,
			units:         *units,
			dbs:           *dbs,
			profile:       p,
			seed:          *seed,
			speedup:       *speedup,
			anomalies:     *anomalies,
			horizon:       *horizon,
			workers:       *conc,
			fleetConc:     *fleetConc,
			history:       *fleetHist,
			plan:          plan,
			dataDir:       *dataDir,
			fsyncPolicy:   *fsyncPolicy,
			peer:          peerURL,
			incidents:     *incidentsOn,
			incidentProx:  *incidentProx,
			incidentClose: *incidentClose,
			incidentHist:  *incidentHist,
			scrapeTargets: fleetTargets,
			scrape: scrape.Config{
				KPIs:              kpi.Count,
				Format:            format,
				RoundTimeout:      *scrapeRoundTO,
				TryTimeout:        *scrapeTryTO,
				MaxAttempts:       *scrapeAttempts,
				BreakerFailures:   *scrapeBrkFails,
				BreakerOpenRounds: *scrapeBrkOpen,
				StaleRounds:       *scrapeStale,
				Concurrency:       *scrapeConc,
			},
		})
		return
	}
	if *units < 1 {
		log.Fatalf("dbcatcherd: -units must be at least 1")
	}
	if *fleetScrapeSpec != "" {
		log.Fatalf("dbcatcherd: -fleet-scrape-targets requires -units > 1 (use -scrape-targets for one unit)")
	}
	// Incident aggregation clusters anomalies *across* units; with one unit
	// there is nothing to cluster, so reject it like fleet mode rejects
	// single-unit-only flags instead of silently ignoring it.
	if *incidentsOn {
		log.Fatalf("dbcatcherd: -incidents requires -units > 1 (fleet mode)")
	}

	// Data source: a recorded trace replayed through the full pipeline, or
	// the live simulation (optionally recorded for later replay). Either way
	// the collector, fault plan, scrape layer, and judge downstream are
	// identical — a trace is just a unit whose history happened elsewhere.
	var series *timeseries.UnitSeries
	var labels *anomaly.Labels
	if *trace != "" {
		if *traceRec != "" {
			log.Fatalf("dbcatcherd: -trace-record cannot be combined with -trace (recording a replay is a file copy)")
		}
		if *foTick > 0 {
			log.Fatalf("dbcatcherd: -failover-tick rewrites the simulation; it cannot be combined with -trace")
		}
		series, err = loadTrace(*trace)
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		*dbs = series.Databases
		*horizon = series.Len()
		log.Printf("replaying trace %s: %d databases, %d ticks (anomaly injection off: the trace is the ground truth)",
			*trace, *dbs, *horizon)
	} else {
		log.Printf("simulating unit: %d databases, profile %v, %d ticks", *dbs, p, *horizon)
		simCfg := cluster.Config{
			Name: "live", Databases: *dbs, Ticks: *horizon, Profile: p, Seed: *seed,
		}
		if *foTick > 0 {
			simCfg.Failover = &cluster.Failover{Tick: *foTick, NewPrimary: *foTarget}
			log.Printf("failover scheduled: db%d promoted at tick %d", *foTarget, *foTick)
		}
		u, err := cluster.Simulate(simCfg)
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		if *anomalies > 0 {
			events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
				Ticks: *horizon, Databases: *dbs, TargetRatio: *anomalies,
			}, mathx.NewRNG(*seed+1))
			labels, err = anomaly.Inject(u, events, mathx.NewRNG(*seed+2))
			if err != nil {
				log.Fatalf("dbcatcherd: %v", err)
			}
			log.Printf("injected %d anomaly episodes (%.1f%% of ticks)",
				len(labels.Events), 100*labels.Ratio())
		}
		series = u.Series
		if *traceRec != "" {
			if err := tracefile.WriteFile(*traceRec, series); err != nil {
				log.Fatalf("dbcatcherd: recording trace: %v", err)
			}
			log.Printf("recorded the injected stream to %s (replay with -trace)", *traceRec)
		}
	}

	plan := workload.FaultPlan{
		Seed:           *seed + 3,
		DropTickRate:   *faultDropTick,
		DropCellRate:   *faultDropCell,
		PartialRowRate: *faultPartial,
		StaleRate:      *faultStale,
	}
	plan.Silences, err = parseSilences(*faultSilences)
	if err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}
	collector, err := cluster.NewCollector(series, plan)
	if err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}
	if !plan.IsZero() {
		log.Printf("collector faults enabled: drop-tick=%.3f drop-cell=%.3f partial-row=%.3f stale=%.3f silences=%d",
			plan.DropTickRate, plan.DropCellRate, plan.PartialRowRate, plan.StaleRate, len(plan.Silences))
	}

	online, err := monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Workers:    *conc,
	}, kpi.Count, *dbs)
	if err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}
	srv := server.New(online, "live", 512)

	// Network scrape layer (optional): with -scrape-addr every database in
	// the unit becomes a real HTTP scrape target served by this process,
	// and ingestion runs the full network path (exporter → scraper →
	// degraded monitor) instead of the in-process function call. With
	// -scrape-targets the scraper collects from external exporters instead
	// (e.g. a second dbcatcherd running -export-only).
	if *exportOnly && *scrapeAddr == "" {
		log.Fatalf("dbcatcherd: -export-only requires -scrape-addr")
	}
	var (
		feed    *scrape.Feed
		scraper *scrape.Scraper
		expSrv  *http.Server
	)
	targets := splitTargets(*scrapeTargets)
	if targets != nil && len(targets) != *dbs {
		log.Fatalf("dbcatcherd: -scrape-targets lists %d targets for %d databases", len(targets), *dbs)
	}
	if *scrapeAddr != "" {
		feed = scrape.NewFeed(kpi.Count, *dbs)
		exp := scrape.NewExporter(feed)
		if err := applyScrapeFaults(exp, *scrapeFaults, *dbs); err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		ln, err := net.Listen("tcp", *scrapeAddr)
		if err != nil {
			log.Fatalf("dbcatcherd: scrape listener: %v", err)
		}
		expSrv = &http.Server{
			Handler: exp.Handler(),
			// No WriteTimeout: hang faults park responses on purpose; the
			// scraper's per-try deadline is the recovery mechanism.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := expSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Fatalf("dbcatcherd: exporter: %v", err)
			}
		}()
		port := ln.Addr().(*net.TCPAddr).Port
		if targets == nil {
			targets = scrape.SelfTargets(fmt.Sprintf("http://127.0.0.1:%d", port), *dbs)
		}
		log.Printf("exporting %d scrape targets on %v (/db/N/kpis)", *dbs, ln.Addr())
	}
	if !*exportOnly && targets != nil {
		scraper, err = scrape.New(scrape.Config{
			Targets:           targets,
			KPIs:              kpi.Count,
			Format:            format,
			RoundTimeout:      *scrapeRoundTO,
			TryTimeout:        *scrapeTryTO,
			MaxAttempts:       *scrapeAttempts,
			BreakerFailures:   *scrapeBrkFails,
			BreakerOpenRounds: *scrapeBrkOpen,
			StaleRounds:       *scrapeStale,
			Concurrency:       *scrapeConc,
			JitterSeed:        *seed + 4,
		})
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		srv.SetScrape(func() interface{} { return scraper.Health() })
		log.Printf("scrape ingestion: %d targets, round deadline %v, breaker %d fails / %d open rounds",
			len(targets), *scrapeRoundTO, *scrapeBrkFails, *scrapeBrkOpen)
	}

	// Durable state: recover whatever a previous run persisted, attach
	// the WAL/snapshot bridge, and resume detection one past the last
	// persisted tick. Without -data-dir everything stays in memory and
	// the detection path is unchanged.
	resume := 0
	fbCap := 512
	var fb *feedback.Store
	var pers *store.Persister
	var st *store.Store
	var repl *replicate.Server
	if *dataDir != "" {
		policy, err := store.ParsePolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		var rec *store.Recovered
		st, rec, err = store.Open(*dataDir, store.Options{Fsync: policy})
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
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
		fb = feedback.NewStoreFrom(fbCap, rec.FeedbackRecords())
		srv.RestoreHistory(rec.VerdictHistory())
		pers = store.NewPersister(st, rec, fb, *snapEvery)
		online.SetPersister(pers)
		fb.SetJournal(pers)
		srv.SetPersistence(pers.Status)
		m := st.Metrics()
		log.Printf("durable state: dir=%s fsync=%s recovered %d records (resume tick %d, torn tail %v)",
			*dataDir, policy, m.RecoveredRecords, resume, m.TornTail)

		// Primary role: adopt the next fencing epoch durably (a promoted
		// standby's epoch is already in the recovered log, so a takeover
		// continues the sequence) and serve the WAL to warm standbys. With
		// a known peer, first prove our log is the newest history: a
		// crashed-and-failed-over primary restarted by its supervisor
		// would otherwise recompute LatestEpoch()+1 from its own stale log
		// and come back as a second primary at the new primary's epoch.
		next := rec.LatestEpoch() + 1
		if peerURL != "" {
			bootCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			err := replicate.VerifyBootEpoch(bootCtx, nil, peerURL, next)
			cancel()
			if err != nil {
				log.Fatalf("dbcatcherd: %v", err)
			}
		}
		if err := st.AdoptEpoch(next, rec.DurableTick()); err != nil {
			log.Fatalf("dbcatcherd: adopt epoch: %v", err)
		}
		epoch, _ := st.Epoch()
		log.Printf("primary role: serving replication at /replicate/ under epoch %d", epoch)
		repl = replicate.NewServer(st)
		srv.SetReplication(repl.StatusBlock)
		srv.SetRole(func() interface{} {
			e, fenced := st.Epoch()
			return map[string]interface{}{"role": "primary", "epoch": e, "fenced": fenced}
		})
	} else {
		fb = feedback.NewStore(fbCap)
	}
	srv.SetFeedback(fb)

	// Epoch guard: while serving as primary with a known peer, keep the
	// pair's epochs converged — re-fence a peer stuck at an older epoch
	// (the partition-survivor zombie) and self-fence on observing the peer
	// at an equal-or-newer one (our history is the stale fork). This is
	// what makes the one-shot fence at promotion time safe to miss.
	guardCtx, guardCancel := context.WithCancel(context.Background())
	defer guardCancel()
	if st != nil && peerURL != "" {
		g := replicate.NewGuard(st, replicate.GuardConfig{
			Peer: peerURL,
			Seed: *seed + 6,
			OnSelfFence: func(peerEpoch uint64) {
				log.Printf("epoch guard: peer %s serves epoch %d >= ours; self-fenced — durable writes stop, /readyz flips unready", peerURL, peerEpoch)
				srv.Invalidate()
			},
		})
		go g.Run(guardCtx)
		log.Printf("epoch guard: watching peer %s", peerURL)
	}

	// Readiness: the node should receive traffic once its feed is live and
	// has not terminally failed; a finished replay still serves history. A
	// fenced store means this node lost an epoch race — a load balancer
	// must stop sending it traffic even though the process is healthy.
	var feedFault atomic.Value
	srv.SetReady(func() error {
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

	// Adaptive relearning (optional): a supervised background loop watches
	// the correlation-distance drift signal and accumulated DBA corrections,
	// re-runs the threshold search in an isolated deadline-bounded
	// goroutine, validates candidates on a held-out split, shadow-judges
	// survivors on live traffic, and only then swaps thresholds atomically.
	// Every failure mode (panic, deadline, regression, flip-budget breach)
	// leaves the live thresholds untouched.
	var sup *relearn.Supervisor
	if *relearnOn && !*exportOnly {
		// The cooldown flag is wall-clock; the supervisor counts collection
		// ticks, which arrive every 5s/speedup.
		cooldownTicks := int(float64(*relearnCool) * *speedup / float64(5*time.Second))
		if cooldownTicks < 1 {
			cooldownTicks = 1
		}
		sup = relearn.NewSupervisor(relearn.Config{
			Q:             kpi.Count,
			Deadline:      *relearnDL,
			CooldownTicks: cooldownTicks,
			ShadowTicks:   *relearnShadow,
			Seed:          *seed + 5,
		}, online, fb, relearn.SeriesSource{U: series})
		if pers != nil {
			sup.SetRecorder(pers)
		}
		srv.SetRelearn(func() interface{} { return sup.Status() }, sup.TriggerManual)
		log.Printf("relearn supervisor: deadline %v, cooldown %d ticks, shadow %d ticks",
			*relearnDL, cooldownTicks, *relearnShadow)
	}

	end := feedEnd(*horizon, *scrapeAddr, targets != nil)
	if resume >= end {
		log.Printf("recovered state already covers the %d-tick horizon; serving history only", *horizon)
	}

	// Fast-forward the deterministic collector to the resume point so
	// the re-fed stream is tick-aligned with the persisted state.
	for i := 0; i < resume; i++ {
		if _, ok := collector.Next(); !ok {
			break
		}
	}
	if *foTick > 0 && *foTick <= resume {
		if err := online.SetPrimary(*foTarget); err != nil {
			log.Printf("failover: %v", err)
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})

	// Feeder: replay the simulated unit's lossy collection stream at the
	// configured speed. The degraded-mode monitor accepts nil and partial
	// samples, so faults degrade verdicts instead of stopping the feeder.
	go func() {
		defer close(done)
		interval := time.Duration(float64(5*time.Second) / *speedup)
		degradedRounds := 0
		for tick := resume; tick < end; tick++ {
			select {
			case <-stop:
				return
			default:
			}
			if *foTick > 0 && tick == *foTick {
				// The detector follows the promotion so R-R KPIs are
				// judged against the correct peer set.
				if err := online.SetPrimary(*foTarget); err != nil {
					log.Printf("failover: %v", err)
				} else {
					log.Printf("failover: detector now treats db%d as primary", *foTarget)
				}
			}
			var sample [][]float64
			if feed != nil || scraper == nil {
				// The local simulation is the data source (everything but
				// pure external-target mode).
				var ok bool
				sample, ok = collector.Next()
				if !ok {
					break
				}
			}
			if feed != nil {
				if err := feed.Publish(tick, sample); err != nil {
					log.Printf("publish: %v", err)
					feedFault.Store(fmt.Errorf("feed stopped: publish: %v", err))
					return
				}
			}
			if *exportOnly {
				time.Sleep(interval)
				continue
			}
			if scraper != nil {
				scraped, rep, err := scraper.Round(context.Background())
				if err != nil {
					log.Printf("scrape round: %v", err)
					feedFault.Store(fmt.Errorf("feed stopped: scrape round: %v", err))
					return
				}
				if rep.Late || rep.Missing > 0 {
					degradedRounds++
					// Log the first few and then sampled repeats; a dead
					// target must not flood the journal one line per tick.
					if degradedRounds <= 10 || degradedRounds%100 == 0 {
						log.Printf("scrape round %d: %d/%d targets arrived (breaker-skipped %d, late %v)",
							rep.Round, rep.Arrived, scraper.Targets(), rep.Skipped, rep.Late)
					}
				}
				sample = scraped
			}
			v, err := srv.Push(sample)
			if err != nil {
				log.Printf("push: %v", err)
				feedFault.Store(fmt.Errorf("feed stopped: push: %v", err))
				return
			}
			if sup != nil {
				sup.ObserveVerdict(v)
			}
			if v != nil {
				switch {
				case v.Health == detect.HealthSkipped:
					log.Printf("SKIPPED round: window [%d, %d) lost to collector faults", v.Start, v.Start+v.Size)
				case v.Abnormal:
					truth := ""
					if labels != nil && tickAbnormal(labels, v.Start, v.Size) {
						truth = " (matches injected anomaly)"
					}
					degraded := ""
					if v.Health == detect.HealthDegraded {
						degraded = fmt.Sprintf(" [degraded: %d gap cells]", v.GapCells)
					}
					log.Printf("ABNORMAL verdict: window [%d, %d) db=%d%s%s",
						v.Start, v.Start+v.Size, v.AbnormalDB, truth, degraded)
				}
			}
			time.Sleep(interval)
		}
		h := online.Health()
		log.Printf("replay finished: %d gap cells, %d missed ticks, %d degraded verdicts, %d skipped rounds, %d deactivations, %d reactivations",
			h.GapCells, h.MissedTicks, h.DegradedVerdicts, h.SkippedRounds, h.Deactivations, h.Reactivations)
	}()

	// Real serving timeouts: a stuck or malicious client cannot pin a
	// connection open forever (the zero-value http.Server would let it).
	handler := srv.Handler()
	if repl != nil {
		// Replication rides on the API listener: standbys fetch the WAL
		// from /replicate/, everything else stays on the server mux.
		outer := http.NewServeMux()
		outer.Handle("/replicate/", repl.Handler())
		outer.Handle("/", handler)
		handler = outer
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	shutdownDone := make(chan struct{})
	go func() {
		// Graceful shutdown: stop the feeder, drain in-flight API
		// responses with a deadline, then flush the final snapshot so the
		// next boot resumes exactly here.
		defer close(shutdownDone)
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
		sig := <-sigc
		log.Printf("received %v: draining and flushing durable state", sig)
		close(stop)
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
		if pers != nil {
			if err := pers.Flush(online); err != nil {
				log.Printf("flush: %v", err)
			}
		}
		if st != nil {
			if err := st.Close(); err != nil {
				log.Printf("close: %v", err)
			}
		}
	}()

	log.Printf("listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("dbcatcherd: %v", err)
	}
	<-shutdownDone
}

// loadTrace reads a -trace file and checks it fits the detector: the full
// 14-KPI vector and at least the two databases correlation needs.
func loadTrace(path string) (*timeseries.UnitSeries, error) {
	series, err := tracefile.ReadFile(path, "trace")
	if err != nil {
		return nil, err
	}
	if series.KPIs != kpi.Count {
		return nil, fmt.Errorf("trace %s carries %d KPIs, want %d", path, series.KPIs, kpi.Count)
	}
	if series.Databases < 2 {
		return nil, fmt.Errorf("trace %s carries %d databases; correlation needs at least 2", path, series.Databases)
	}
	if series.Len() == 0 {
		return nil, fmt.Errorf("trace %s is empty", path)
	}
	return series, nil
}

// parseFleetTargets parses the -fleet-scrape-targets spec: unit groups
// separated by ';', each group either one exporter base URL (expanded to
// the per-database /db/N/kpis targets, like self-scrape) or a
// comma-separated list of exactly dbs URLs in database order. The group
// count must match -units — a fleet scraping fewer exporters than it has
// judges is a misconfiguration, not a default.
func parseFleetTargets(spec string, units, dbs int) ([][]string, error) {
	groups := strings.Split(spec, ";")
	if len(groups) != units {
		return nil, fmt.Errorf("-fleet-scrape-targets lists %d unit groups for %d units", len(groups), units)
	}
	out := make([][]string, len(groups))
	for i, g := range groups {
		list := splitTargets(g)
		switch len(list) {
		case 0:
			return nil, fmt.Errorf("-fleet-scrape-targets unit %d is empty", i)
		case 1:
			out[i] = scrape.SelfTargets(strings.TrimRight(list[0], "/"), dbs)
		case dbs:
			out[i] = list
		default:
			return nil, fmt.Errorf("-fleet-scrape-targets unit %d lists %d targets; want one base URL or exactly %d", i, len(list), dbs)
		}
	}
	return out, nil
}

// splitTargets parses the -scrape-targets list (nil when empty).
func splitTargets(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// applyScrapeFaults parses and installs the -scrape-fault script:
// "db:mode[:count]" entries separated by commas, count 0 or omitted
// meaning until the process exits.
func applyScrapeFaults(exp *scrape.Exporter, spec string, dbs int) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 2 && len(fields) != 3 {
			return fmt.Errorf("bad scrape fault %q (want db:mode[:count])", part)
		}
		db, err := strconv.Atoi(fields[0])
		if err != nil || db < 0 || db >= dbs {
			return fmt.Errorf("bad scrape fault %q: database %q out of %d", part, fields[0], dbs)
		}
		mode, err := scrape.ParseFaultMode(fields[1])
		if err != nil {
			return fmt.Errorf("bad scrape fault %q: %v", part, err)
		}
		count := 0
		if len(fields) == 3 {
			if count, err = strconv.Atoi(fields[2]); err != nil || count < 0 {
				return fmt.Errorf("bad scrape fault %q: count %q", part, fields[2])
			}
		}
		if err := exp.SetFault(db, scrape.Fault{Mode: mode, Count: count}); err != nil {
			return err
		}
	}
	return nil
}

func tickAbnormal(l *anomaly.Labels, start, size int) bool {
	for t := start; t < start+size && t < len(l.Point); t++ {
		if l.Point[t] {
			return true
		}
	}
	return false
}

// parseSilences parses "db:start:length[,db:start:length...]". Every field
// is a strict non-negative decimal: the previous fmt.Sscanf("%d:%d:%d")
// parser accepted trailing garbage ("1:2:3junk" parsed clean), so a typo'd
// spec silently installed a different outage than the operator asked for.
func parseSilences(s string) ([]workload.Silence, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []workload.Silence
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad silence %q (want db:start:length)", part)
		}
		vals := make([]int, 3)
		for i, f := range fields {
			v, err := parseCount(f)
			if err != nil {
				return nil, fmt.Errorf("bad silence %q: %v", part, err)
			}
			vals[i] = v
		}
		out = append(out, workload.Silence{DB: vals[0], Start: vals[1], Length: vals[2]})
	}
	return out, nil
}

// parseCount parses a strict non-negative decimal flag field: ASCII digits
// only — no sign, no whitespace, no trailing garbage.
func parseCount(f string) (int, error) {
	if f == "" {
		return 0, fmt.Errorf("empty field")
	}
	for i := 0; i < len(f); i++ {
		if f[i] < '0' || f[i] > '9' {
			return 0, fmt.Errorf("field %q is not a non-negative integer", f)
		}
	}
	v, err := strconv.Atoi(f)
	if err != nil {
		return 0, fmt.Errorf("field %q out of range", f)
	}
	return v, nil
}

// feedEnd is the tick before which a feeder stops. -horizon bounds the
// input the daemon simulates or replays itself, also when its own exporter
// (-scrape-addr) serves it. External scrape targets publish for as long as
// they run, so a feeder that only scrapes them (targets without an
// exporter address) runs until the daemon stops.
func feedEnd(horizon int, exportAddr string, targets bool) int {
	if targets && exportAddr == "" {
		return math.MaxInt
	}
	return horizon
}

// checkRunFlags rejects the shape and pace flags no mode can run with,
// before any mode starts. A unit needs two databases to correlate (zero
// would panic the judge), unless a trace fixes -dbs itself; a speedup
// that is not positive (or NaN) makes the feed interval negative, so the
// replay would run unthrottled.
func checkRunFlags(dbs int, fromTrace bool, speedup float64) error {
	if !fromTrace && dbs < 2 {
		return fmt.Errorf("-dbs %d: a unit needs at least 2 databases", dbs)
	}
	if !(speedup > 0) {
		return fmt.Errorf("-speedup %v: must be positive", speedup)
	}
	return nil
}

func parseProfile(s string) (workload.Profile, error) {
	switch strings.ToLower(s) {
	case "tencent-irregular":
		return workload.TencentIrregular, nil
	case "tencent-periodic":
		return workload.TencentPeriodic, nil
	case "sysbench-i":
		return workload.SysbenchI, nil
	case "sysbench-ii":
		return workload.SysbenchII, nil
	case "tpcc-i":
		return workload.TPCCI, nil
	case "tpcc-ii":
		return workload.TPCCII, nil
	default:
		return 0, fmt.Errorf("unknown profile %q", s)
	}
}
