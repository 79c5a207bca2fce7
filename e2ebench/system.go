package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"

	"dbcatcher/internal/detect"
	"dbcatcher/internal/fleet"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/rootcause"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/server"
	"dbcatcher/internal/store"
	"dbcatcher/internal/window"
)

// The fleet daemon's defaults (cmd/dbcatcherd flags), which every unit and
// the incident stage are built with.
const (
	fleetHistory  = 128 // -fleet-history
	incidentProx  = 32  // -incident-proximity
	incidentClose = 64  // -incident-close-after
	incidentHist  = 256 // -incident-history
)

var storeOptions = store.Options{Fsync: store.FsyncEveryInterval} // -fsync-policy interval

func onlineConfig() detect.Config {
	// The fleet pool already fans out across units, so the daemon runs
	// each judge with one correlation worker.
	return detect.Config{Thresholds: window.DefaultThresholds(kpi.Count), Workers: 1}
}

func incidentConfig() incident.Config {
	return incident.Config{ProximityTicks: incidentProx, CloseAfter: incidentClose, MaxHistory: incidentHist}
}

// system is the fleet stack cmd/dbcatcherd's runFleet builds, assembled from
// the packages' public APIs: per-unit judges behind servers, one fleet
// scheduler, one multiplexed WAL, the incident stage, the aggregated API on
// a loopback listener, and in scrape workloads one exporter and scraper per
// unit.
type system struct {
	dir     string
	st      *store.Store
	fp      *store.FleetPersister
	onlines []*monitor.Online
	servers []*server.Server
	mon     *fleet.Monitor
	agg     *incident.Aggregator
	// incBuf collects one round's incident transitions for a single WAL
	// record; only the feeder goroutine touches it.
	incBuf   []incident.Transition
	attribs  int // closed clusters attributed to a probable origin
	api      *httptest.Server
	feeds    []*scrape.Feed
	exports  []*httptest.Server
	scrapers []*scrape.Scraper
	scrapeTr *http.Transport
}

// newSystem builds and starts the stack in dir. With a tracer the per-layer
// wrappers are installed around the public seams; without one the stack is
// exactly what the daemon runs.
func newSystem(w workload, dir string, tr *tracer) (_ *system, err error) {
	s := &system{dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	st, rec, err := store.Open(dir, storeOptions)
	if err != nil {
		return nil, err
	}
	s.st = st
	s.fp = store.NewFleetPersister(st, rec)

	s.onlines = make([]*monitor.Online, w.units)
	s.servers = make([]*server.Server, w.units)
	pushers := make([]fleet.Pusher, w.units)
	for i := range s.onlines {
		o, err := monitor.NewOnline(onlineConfig(), kpi.Count, dbsPerUnit)
		if err != nil {
			return nil, err
		}
		srv := server.New(o, fmt.Sprintf("unit-%03d", i), fleetHistory)
		srv.RestoreHistory(rec.UnitVerdictHistory(i))
		var p monitor.Persister = s.fp.Unit(i)
		pushers[i] = srv
		if tr != nil {
			p = &tracedPersister{inner: p, unit: i, tr: tr}
			pushers[i] = &tracedPusher{srv: srv, unit: i, tr: tr}
		}
		o.SetPersister(p)
		s.onlines[i], s.servers[i] = o, srv
	}

	s.agg = incident.New(incidentConfig())
	if err := s.agg.Restore(rec.IncidentTransitions()); err != nil {
		return nil, err
	}
	s.agg.SetPersist(func(t incident.Transition) { s.incBuf = append(s.incBuf, t) })
	s.agg.SetOnClusterClose(func(rep *incident.ClusterReport) {
		if rootcause.AttributeFleet(rep).OriginUnit >= 0 {
			s.attribs++
		}
	})
	if err := st.AdoptEpoch(rec.LatestEpoch()+1, 0); err != nil {
		return nil, err
	}

	if s.mon, err = fleet.NewMonitor(pushers, 0); err != nil {
		return nil, err
	}
	api := server.NewFleet(s.servers)
	api.SetPersistence(s.fp.Status)
	api.SetIncidents(s.agg)
	if w.scrape {
		if err := s.startScrape(w, tr); err != nil {
			return nil, err
		}
		api.SetScrape(func() interface{} {
			hs := make([]interface{}, len(s.scrapers))
			for i, sc := range s.scrapers {
				hs[i] = sc.Health()
			}
			return hs
		})
	}
	var h http.Handler = api.Handler()
	if tr != nil {
		h = tr.apiSpan(h)
	}
	s.api = httptest.NewServer(h)
	return s, nil
}

// startScrape gives every unit a feed, an exporter on its own loopback
// listener and a scraper, all scrapers sharing one transport. Load-side
// concurrency stays within the CPU count: scrape concurrency times the
// units the fleet pool runs at once is at most nproc.
func (s *system) startScrape(w workload, tr *tracer) error {
	nproc := runtime.NumCPU()
	pool := fleet.Resolve(0)
	if pool > w.units {
		pool = w.units
	}
	conc := nproc / pool
	if conc < 1 {
		conc = 1
	}
	s.scrapeTr = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	client := &http.Client{Transport: s.scrapeTr}
	s.scrapers = make([]*scrape.Scraper, w.units)
	for i := 0; i < w.units; i++ {
		feed := scrape.NewFeed(kpi.Count, dbsPerUnit)
		var h http.Handler = scrape.NewExporter(feed).Handler()
		if tr != nil {
			h = tr.exporterSpan(i, h)
			client = &http.Client{Transport: &tracedTransport{base: s.scrapeTr, tr: tr, unit: i}}
		}
		exp := httptest.NewServer(h)
		s.feeds = append(s.feeds, feed)
		s.exports = append(s.exports, exp)
		sc, err := scrape.New(scrape.Config{
			Targets:     scrape.SelfTargets(exp.URL, dbsPerUnit),
			KPIs:        kpi.Count,
			Format:      w.format,
			Concurrency: conc,
			JitterSeed:  uint64(i)*unitSeedStride + 4,
			Client:      client,
		})
		if err != nil {
			return fmt.Errorf("unit %d scraper: %w", i, err)
		}
		s.scrapers[i] = sc
	}
	return s.mon.SetScrapers(s.scrapers)
}

// close stops the listeners and flushes and closes the store.
func (s *system) close() error {
	if s.api != nil {
		s.api.Close()
	}
	for _, e := range s.exports {
		e.Close()
	}
	if s.scrapeTr != nil {
		s.scrapeTr.CloseIdleConnections()
	}
	if s.st == nil {
		return nil
	}
	flushErr := s.fp.Flush()
	if err := s.st.Close(); err != nil {
		return err
	}
	return flushErr
}
