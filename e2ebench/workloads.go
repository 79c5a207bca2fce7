package main

import (
	"fmt"
	"math"

	"dbcatcher/internal/scrape"
)

// workload is one traffic mix. Rates are fixed; the tick counts of the
// timed segments derive from the run length and scale (see ticks), so two
// commits run with the same settings do identical work and write identical
// WAL contents.
type workload struct {
	name  string
	units int
	// scrape feeds the fleet over loopback HTTP (exporter, scraper,
	// ScrapeRound) in the given wire format; otherwise samples go through
	// Monitor.Push in process, as the daemon's simulated collector does.
	scrape bool
	format scrape.Format
	// faults turns on the collector fault plan (see faultPlan).
	faults bool
	// closedRate is the closed-loop throughput, in ticks/s, the reference
	// host reaches on its slower days; it only sizes the closed segments, so
	// that together they last at most about two thirds of the run there.
	closedRate float64
	// openRate is the open-loop tick rate R: tick t is due t/R after the
	// segment starts. It is set well below closedRate (a quarter of it or
	// less on a slow day of the reference host), so latency measures a
	// round's service time rather than queueing behind earlier rounds.
	openRate float64
	// readRate is the dashboard's poll rate in requests/s. One of openRate
	// and readRate is a whole multiple of the other, so open-loop reads land
	// at the same phases of the ticks in every run.
	readRate float64
}

// The workloads and why each exists are documented in README.md; the
// predicted effect of each layer on each workload is listed there too.
var workloads = []workload{
	{name: "scrape-32", units: 32, scrape: true, format: scrape.FormatProm, closedRate: 90, openRate: 25, readRate: 25},
	{name: "scrape-1", units: 1, scrape: true, format: scrape.FormatJSON, closedRate: 2800, openRate: 1000, readRate: 50},
	{name: "dashboard-32", units: 32, faults: true, closedRate: 1900, openRate: 50, readRate: 200},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// warmupTicks run untimed before the first epoch (scaled with -scale,
	// down to one default W=20 window).
	warmupTicks    = 120
	minWarmupTicks = 20
	// epochs splits the timed part of a run. Each epoch runs a closed-loop
	// segment, an open-loop segment, and a boundary that times restarts of
	// the WAL written so far and builds of spare stacks. This host's speed
	// drifts by 10-20% over seconds to minutes, so every metric takes its
	// samples from the whole run rather than from a stretch of it.
	epochs = 8
	// blockTicks is the closed loop's measuring block: one default W=20
	// window, so every block closes about as many windows. Throughput is
	// the median block's rate. A closed segment is a whole number of groups
	// of four blocks: a traced run traces the middle two of each group
	// (off-on-on-off, so a linear drift within a group cancels out) and
	// reports the median over groups of the traced over the untraced time.
	blockTicks = 20
	// minBlockTicks keeps a scaled-down closed segment, four blocks, long
	// enough to close a default window; minOpenTicks keeps a scaled-down
	// open segment long enough to judge.
	minBlockTicks = 2
	minOpenTicks  = 5
	// closedShare of a run goes to the closed segments, which give the
	// end-to-end metrics, and the rest to the open ones.
	closedShare = 2.0 / 3
)

// ticks returns, for a run of the given length, the warm-up tick count, the
// closed loop's block size, and each epoch's closed- and open-segment tick
// counts. On the reference host the closed segments together take about
// closedShare of the run, and the open ones the rest.
func (w workload) ticks(seconds, scale float64) (warmup, block, closed, open int) {
	warmup = max(int(math.Round(warmupTicks*math.Min(scale, 1))), minWarmupTicks)
	perEpoch := w.closedRate * seconds * closedShare * scale / epochs
	block = min(blockTicks, max(int(perEpoch)/4, minBlockTicks))
	closed = 4 * block * max(int(math.Round(perEpoch/float64(4*block))), 1)
	open = max(int(math.Round(w.openRate*seconds*(1-closedShare)*scale/epochs)), minOpenTicks)
	return warmup, block, closed, open
}
