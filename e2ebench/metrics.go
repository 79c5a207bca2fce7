package main

// metricSpec names one reported metric. BENCHMARK.json lists the same
// metrics (with each end-to-end metric's regression bound); the package
// test checks that the two agree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the untraced run's metrics: what an operator of the daemon
// sees. README.md defines each.
var endToEnd = []metricSpec{
	{"unit_ticks_per_s", "1/s", "higher"},
	{"verdict_p50_ms", "ms", "lower"},
	{"verdict_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, measured on every workload. The
// scrape and exporter latency percentiles exist only on scrape workloads,
// so they are printed in the per-layer table and kept in -o files but not
// listed here.
var perLayer = []metricSpec{
	{"share.feeder", "%", "lower"},
	{"share.scrape", "%", "lower"},
	{"share.exporter", "%", "lower"},
	{"share.fleet", "%", "lower"},
	{"share.monitor", "%", "lower"},
	{"share.store", "%", "lower"},
	{"share.detect", "%", "lower"},
	{"share.incident", "%", "lower"},
	{"share.server", "%", "lower"},
	{"scrape.requests", "count", "lower"},
	{"scrape.useful_ratio", "ratio", "higher"},
	{"scrape.retries", "count", "lower"},
	{"scrape.timeouts", "count", "lower"},
	{"scrape.late_rounds", "count", "lower"},
	{"fleet.round_p50_us", "us", "lower"},
	{"fleet.round_p99_us", "us", "lower"},
	{"fleet.self_share", "ratio", "lower"},
	{"fleet.parallelism", "ratio", "higher"},
	{"monitor.push_ingest_p50_us", "us", "lower"},
	{"monitor.push_judge_p50_us", "us", "lower"},
	{"monitor.push_judge_p99_us", "us", "lower"},
	{"monitor.verdicts", "count", "higher"},
	{"monitor.expansions", "count", "lower"},
	{"monitor.degraded_verdicts", "count", "lower"},
	{"monitor.skipped_rounds", "count", "lower"},
	{"store.persist_p50_us", "us", "lower"},
	{"store.incident_append_p50_us", "us", "lower"},
	{"store.appends", "count", "lower"},
	{"store.syncs", "count", "lower"},
	{"store.wal_bytes", "bytes", "lower"},
	{"store.errors", "count", "lower"},
	{"incident.observe_p50_us", "us", "lower"},
	{"incident.events", "count", "lower"},
	{"incident.merged", "count", "higher"},
	{"incident.clusters_closed", "count", "lower"},
	{"incident.transitions", "count", "lower"},
	{"detect.explain_p50_us", "us", "lower"},
	{"detect.explain_calls", "count", "lower"},
	{"detect.f_measure", "ratio", "higher"},
	{"server.verdict_get_p50_us", "us", "lower"},
	{"server.verdict_queue_wait_p50_us", "us", "lower"},
	{"server.status_get_p50_us", "us", "lower"},
	{"server.incidents_get_p50_us", "us", "lower"},
	{"server.handle_p50_us", "us", "lower"},
	{"server.read_errors", "count", "lower"},
	{"runtime.allocs_per_unit_tick", "count", "lower"},
	{"runtime.bytes_per_unit_tick", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"gen.late_max_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"verdict_p99_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p90_ms", "ms", "lower"},
	{"open_verdict_p50_ms", "ms", "lower"},
	{"open_verdict_p90_ms", "ms", "lower"},
	{"open_read_p50_ms", "ms", "lower"},
	{"recover_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
