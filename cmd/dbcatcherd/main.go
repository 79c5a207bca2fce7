// Command dbcatcherd is the online monitoring daemon: it simulates cloud
// database units (with optional injected anomalies), or scrapes real
// exporters, streams their KPI samples through one DBCatcher judge per
// unit, and serves status, verdicts, thresholds, and DBA feedback over
// HTTP. One unit is the smallest region: it runs through the same loop as
// a fleet of -units N (see runFleet).
//
// With -data-dir the detector's state is durable: verdicts, feedback
// records, and threshold swaps are written to a CRC-checked WAL and the
// judge's full state to atomic snapshots, so a restart resumes detection
// one past the last persisted tick instead of resetting to factory
// thresholds. SIGTERM/SIGINT drain in-flight API responses and flush a
// final snapshot before exit.
//
// With -scrape-addr the collection path is a real network pipeline: the
// unit is exported over HTTP, all of it at /kpis and each database at
// /db/N/kpis, and ingestion runs exporter → deadline-driven scraper
// (retries, backoff, per-endpoint circuit breakers) → degraded monitor. The
// unit scrapes itself at /kpis, one request per tick. -scrape-fault injects
// exporter misbehaviour (hangs, 5xx, truncated JSON, drops) to watch the
// pipeline degrade and recover; /api/status reports per-database scrape
// health. A second process can run -scrape-addr :9101 -export-only while
// this one scrapes it via -scrape-targets.
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
	"net"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/store"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/tracefile"
	"dbcatcher/internal/workload"
)

// maxFleetUnits bounds -units: each unit carries rings, a judge, and a
// verdict buffer, and the simulator pre-generates its whole series.
const maxFleetUnits = 4096

// fleetConfig is the daemon's command line. bindFlags fills the fields
// named after flags; checkRunFlags checks them and resolves the rest.
type fleetConfig struct {
	addr      string
	units     int
	dbs       int
	seed      uint64
	speedup   float64
	anomalies float64
	horizon   int
	foTick    int
	foTarget  int
	fleetConc int // scheduler pool; 0 = GOMAXPROCS
	history   int // verdict buffer per unit

	profileName string
	profile     workload.Profile

	plan     workload.FaultPlan // rates from flags, Silences resolved; seeded per unit
	silences string

	dataDir     string
	fsyncPolicy string
	fsync       store.Policy
	snapEvery   int

	follow       string
	followPoll   time.Duration
	promoteAfter time.Duration
	staleBudget  time.Duration
	peer         string // HA counterpart base URL ("" = no epoch guard)

	scrapeAddr   string
	targetSpec   string
	targets      [][]string    // one target list per unit; nil = no external targets
	scrape       scrape.Config // tuning template; Targets and JitterSeed are per unit
	formatName   string
	scrapeFaults string
	exportOnly   bool

	trace    string
	traceRec string
	series   *timeseries.UnitSeries // the loaded -trace

	incidents     bool
	incidentProx  int
	incidentClose int
	incidentHist  int

	relearn       bool
	relearnDL     time.Duration
	relearnCool   time.Duration
	relearnShadow int
}

// external reports whether the units only scrape targets this daemon does
// not export: their data lives elsewhere, so they have no input here.
func (c *fleetConfig) external() bool { return c.targets != nil && c.scrapeAddr == "" }

func main() {
	cfg := bindFlags(flag.CommandLine)
	flag.Parse()
	if err := checkRunFlags(cfg); err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Warm-standby phase: tail the primary until promotion (manual or
	// missed-heartbeat), then fall through into the normal startup below —
	// the promoted mirror recovers exactly like a restarted primary and
	// the feed resumes from the last durable tick.
	if cfg.follow != "" {
		promoted, err := runFollower(ctx, cfg)
		if err != nil {
			log.Fatalf("dbcatcherd: %v", err)
		}
		if !promoted {
			return // clean standby shutdown
		}
		// The freshly promoted node guards against its old primary coming
		// back without any extra configuration.
		if cfg.peer == "" {
			cfg.peer = cfg.follow
		}
		log.Printf("takeover: restarting the monitoring stack from the promoted mirror")
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}
	if err := runFleet(ctx, ln, cfg); err != nil {
		log.Fatalf("dbcatcherd: %v", err)
	}
}

// bindFlags defines every daemon flag on fs and returns the config the
// parsed values land in.
func bindFlags(fs *flag.FlagSet) *fleetConfig {
	c := &fleetConfig{scrape: scrape.Config{KPIs: kpi.Count}}
	fs.StringVar(&c.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&c.profileName, "profile", "tencent-irregular", "workload profile: tencent-irregular, tencent-periodic, sysbench-i, sysbench-ii, tpcc-i, tpcc-ii")
	fs.IntVar(&c.dbs, "dbs", 5, "databases per unit")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed (unit i draws from seed + 1009*i)")
	fs.Float64Var(&c.speedup, "speedup", 100, "simulation speed multiplier (1 = real-time 5 s ticks)")
	fs.Float64Var(&c.anomalies, "anomaly-ratio", 0.03, "fraction of abnormal ticks injected into the stream")
	fs.IntVar(&c.horizon, "horizon", 17280, "ticks to pre-simulate (default 24 h); bounds simulated and trace input only: external scrape targets (-scrape-targets without -scrape-addr) are scraped until the daemon stops")
	fs.IntVar(&c.foTick, "failover-tick", 0, "tick at which a failover promotes a replica (0 = none)")
	fs.IntVar(&c.foTarget, "failover-target", 1, "replica promoted at -failover-tick")

	fs.Float64Var(&c.plan.DropTickRate, "fault-drop-tick", 0, "probability a whole collection tick is lost")
	fs.Float64Var(&c.plan.DropCellRate, "fault-drop-cell", 0, "per-cell probability a (KPI, database) point is lost")
	fs.Float64Var(&c.plan.PartialRowRate, "fault-partial-row", 0, "per-KPI probability a row arrives truncated")
	fs.Float64Var(&c.plan.StaleRate, "fault-stale", 0, "probability a tick is re-delivered stale")
	fs.StringVar(&c.silences, "fault-silence", "", "scheduled database outages as db:start:length[,db:start:length...]")

	fs.StringVar(&c.dataDir, "data-dir", "", "durable state directory (empty = in-memory only)")
	fs.StringVar(&c.fsyncPolicy, "fsync-policy", "interval", "WAL durability: always, interval, never")
	fs.IntVar(&c.snapEvery, "snapshot-every", 1, "verdicts between state snapshots (threshold swaps always snapshot)")

	fs.StringVar(&c.follow, "follow", "", "warm-standby mode: tail this primary's base URL into -data-dir and serve probes only; detection starts after promotion")
	fs.DurationVar(&c.followPoll, "follow-poll", 500*time.Millisecond, "follower tail poll interval")
	fs.DurationVar(&c.promoteAfter, "promote-after", 0, "auto-promote after this long without primary contact (0 = manual POST /api/promote only)")
	fs.DurationVar(&c.staleBudget, "staleness-budget", 5*time.Second, "replication lag budget before a follower's /readyz reports unready")
	fs.StringVar(&c.peer, "peer", "", "HA counterpart base URL: a booting primary refuses to serve if the peer already holds an equal-or-newer fencing epoch, and while serving it runs the epoch guard (re-fences a stale peer, self-fences on seeing a newer one); a promoted standby defaults this to the old primary's URL")

	fs.StringVar(&c.scrapeAddr, "scrape-addr", "", "serve the unit's KPI exporter on this address (the whole unit at /kpis, each database at /db/N/kpis) and ingest over HTTP scrape instead of the in-process collector")
	fs.StringVar(&c.targetSpec, "scrape-targets", "", "external scrape targets: unit groups separated by ';', each one exporter base URL (the unit's /kpis, one request per tick) or a comma-separated list of exactly -dbs URLs in database order (databases that repeat a URL share one request); replaces the simulated feed (with -scrape-addr, the self targets)")
	fs.BoolVar(&c.exportOnly, "export-only", false, "with -scrape-addr: only publish and export KPIs, skip detection (a second dbcatcherd scrapes this one via -scrape-targets)")

	fs.DurationVar(&c.scrape.RoundTimeout, "scrape-round-timeout", 2*time.Second, "collection deadline per tick; late targets become NaN gaps")
	fs.DurationVar(&c.scrape.TryTimeout, "scrape-try-timeout", 0, "per-attempt HTTP timeout (0 = round timeout / 4)")
	fs.IntVar(&c.scrape.MaxAttempts, "scrape-attempts", 3, "attempts per target per round (first try plus retries)")
	fs.IntVar(&c.scrape.BreakerFailures, "scrape-breaker-failures", 3, "consecutive failed rounds before a target's circuit breaker opens")
	fs.IntVar(&c.scrape.BreakerOpenRounds, "scrape-breaker-open", 5, "rounds an open breaker skips before its half-open probe")
	fs.IntVar(&c.scrape.StaleRounds, "scrape-stale-rounds", 3, "rounds a target may re-serve the same tick before it is marked down")
	fs.IntVar(&c.scrape.Concurrency, "scrape-concurrency", 0, "endpoints (distinct target URLs) fetched at once per scrape round, on the feeding goroutine plus up to N-1 it starts (0 = all endpoints, capped at 16)")
	fs.StringVar(&c.scrapeFaults, "scrape-fault", "", "exporter fault script: db:mode[:count],... (modes: hang, 5xx, truncate, garbage, drop, flap, stale, format-flip); a wire fault on one database fails the whole /kpis response that self-scrape fetches, so to drill one database name per-database URLs (.../db/N/kpis) in -scrape-targets")
	fs.StringVar(&c.formatName, "scrape-format", "json", "scrape wire format negotiated with every target: json (bespoke payload) or prom (Prometheus text exposition)")

	fs.StringVar(&c.trace, "trace", "", "replay a recorded KPI trace (CSV, see internal/tracefile) through the full pipeline instead of simulating; the trace fixes -dbs and -horizon")
	fs.StringVar(&c.traceRec, "trace-record", "", "write the simulated (and anomaly-injected) KPI stream to this CSV trace on startup; replay it later with -trace")

	fs.IntVar(&c.units, "units", 1, "database units to monitor: one unit serves the per-unit /api routes, more the aggregated /api/fleet routes")
	fs.IntVar(&c.fleetConc, "fleet-concurrency", 0, "round scheduler worker pool (0 = GOMAXPROCS); per-unit verdicts are identical at any setting")
	fs.IntVar(&c.history, "fleet-history", 128, "verdict history buffer per unit")

	fs.BoolVar(&c.incidents, "incidents", false, "fleet incident aggregation: dedup repeated verdicts into incidents, cluster co-occurring anomalies across units, serve /api/incidents (requires -units > 1)")
	fs.IntVar(&c.incidentProx, "incident-proximity", 32, "ticks within which anomalies on different units join one fleet incident cluster")
	fs.IntVar(&c.incidentClose, "incident-close-after", 64, "quiet ticks after an incident's last sighting before it closes")
	fs.IntVar(&c.incidentHist, "incident-history", 256, "closed incident clusters retained for /api/incidents paging")

	fs.BoolVar(&c.relearn, "relearn", false, "enable the drift-triggered adaptive threshold relearning supervisor")
	fs.DurationVar(&c.relearnDL, "relearn-deadline", 30*time.Second, "wall-clock budget for one background threshold search")
	fs.DurationVar(&c.relearnCool, "relearn-cooldown", 2*time.Minute, "minimum gap between retrain attempts (converted to ticks at the replay rate)")
	fs.IntVar(&c.relearnShadow, "relearn-shadow-ticks", 100, "live ticks a validated candidate is shadow-judged before promotion")
	return c
}

// flagUse names a flag (or a family of them) and whether it was set.
type flagUse struct {
	name string
	set  bool
}

// checkRunFlags is the one place the daemon's flag rules live: it returns
// the first violation, before any mode starts, and resolves the values
// the flags only name (profile, wire format, fsync policy, silences,
// target groups, and the -trace file, which fixes -dbs and -horizon).
func checkRunFlags(c *fleetConfig) error {
	if c.units < 1 {
		return fmt.Errorf("-units must be at least 1")
	}
	if c.units > maxFleetUnits {
		return fmt.Errorf("-units %d exceeds the %d-unit bound", c.units, maxFleetUnits)
	}
	// The integrations that assume exactly one judge are rejected rather
	// than silently applied to unit 0 only.
	if c.units > 1 {
		for _, f := range []flagUse{
			{"-scrape-addr", c.scrapeAddr != ""},
			{"-scrape-fault", c.scrapeFaults != ""},
			{"-export-only", c.exportOnly},
			{"-relearn", c.relearn},
			{"-failover-tick", c.foTick > 0},
			{"-trace", c.trace != ""},
			{"-trace-record", c.traceRec != ""},
		} {
			if f.set {
				return fmt.Errorf("%s is single-unit only; it cannot be combined with -units > 1", f.name)
			}
		}
	} else if c.incidents {
		// Incident aggregation clusters anomalies across units; one unit has
		// nothing to cluster.
		return fmt.Errorf("-incidents requires -units > 1 (fleet mode)")
	}
	if c.exportOnly && c.scrapeAddr == "" {
		return fmt.Errorf("-export-only requires -scrape-addr")
	}
	if c.scrapeFaults != "" && c.scrapeAddr == "" {
		return fmt.Errorf("-scrape-fault scripts this daemon's exporter; it requires -scrape-addr")
	}
	if c.follow != "" {
		if c.dataDir == "" {
			return fmt.Errorf("-follow requires -data-dir (the WAL mirror lives there)")
		}
		// A fleet's standby may scrape external targets once promoted.
		if c.exportOnly || (c.units == 1 && c.targetSpec != "") {
			return fmt.Errorf("-follow cannot be combined with -export-only or, for one unit, -scrape-targets")
		}
	}
	if c.trace != "" {
		if c.traceRec != "" {
			return fmt.Errorf("-trace-record cannot be combined with -trace (recording a replay is a file copy)")
		}
		if c.foTick > 0 {
			return fmt.Errorf("-failover-tick rewrites the simulation; it cannot be combined with -trace")
		}
	}
	// A unit needs two databases to correlate (zero would panic the
	// judge), unless a trace fixes -dbs itself; a speedup that is not
	// positive (or NaN) makes the feed interval negative, so the replay
	// would run unthrottled.
	if c.trace == "" && c.dbs < 2 {
		return fmt.Errorf("-dbs %d: a unit needs at least 2 databases", c.dbs)
	}
	if !(c.speedup > 0) {
		return fmt.Errorf("-speedup %v: must be positive", c.speedup)
	}
	var err error
	if c.profile, err = parseProfile(c.profileName); err != nil {
		return err
	}
	if c.scrape.Format, err = scrape.ParseFormat(c.formatName); err != nil {
		return err
	}
	if c.fsync, err = store.ParsePolicy(c.fsyncPolicy); err != nil {
		return err
	}
	if c.plan.Silences, err = parseSilences(c.silences); err != nil {
		return err
	}
	c.peer = strings.TrimRight(c.peer, "/")
	c.follow = strings.TrimRight(c.follow, "/")
	if c.targetSpec != "" && c.relearn {
		// The relearn source is the local stream; with -scrape-targets the
		// judge scrapes another one, also when -scrape-addr exports this one.
		return fmt.Errorf("-relearn cannot be combined with -scrape-targets: it would learn from the local stream while the unit judges the targets' stream")
	}
	if c.targetSpec != "" && c.scrapeAddr == "" {
		// The units' data comes over the wire: a flag that shapes or
		// records a local stream would act on a stream nothing judges or
		// exports.
		for _, f := range []flagUse{
			{"collector fault flags (-fault-*)", !c.plan.IsZero()},
			{"-trace", c.trace != ""},
			{"-trace-record", c.traceRec != ""},
		} {
			if f.set {
				return fmt.Errorf("%s cannot be combined with -scrape-targets without -scrape-addr: the units only scrape external targets, so no local stream is judged (script faults on the exporters instead)", f.name)
			}
		}
	}
	if c.trace != "" {
		if c.series, err = loadTrace(c.trace); err != nil {
			return err
		}
		c.dbs, c.horizon = c.series.Databases, c.series.Len()
	}
	if c.targetSpec != "" {
		if c.targets, err = parseFleetTargets(c.targetSpec, c.units, c.dbs); err != nil {
			return err
		}
	}
	return nil
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

// parseFleetTargets parses the -scrape-targets spec: unit groups separated
// by ';', each group either one exporter base URL (its /kpis for every
// database, like self-scrape: one endpoint) or a comma-separated list of
// exactly dbs URLs in database order, where databases that repeat a URL
// form one endpoint. The group count must match
// -units — a fleet scraping fewer exporters than it has judges is a
// misconfiguration, not a default.
func parseFleetTargets(spec string, units, dbs int) ([][]string, error) {
	groups := strings.Split(spec, ";")
	if len(groups) != units {
		return nil, fmt.Errorf("-scrape-targets lists %d unit groups for %d units", len(groups), units)
	}
	out := make([][]string, len(groups))
	for i, g := range groups {
		list := splitTargets(g)
		switch len(list) {
		case 0:
			return nil, fmt.Errorf("-scrape-targets unit %d is empty", i)
		case 1:
			out[i] = scrape.SelfTargets(strings.TrimRight(list[0], "/"), dbs)
		case dbs:
			out[i] = list
		default:
			return nil, fmt.Errorf("-scrape-targets unit %d lists %d targets; want one base URL or exactly %d", i, len(list), dbs)
		}
	}
	return out, nil
}

// splitTargets parses one comma-separated target group (nil when empty).
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
