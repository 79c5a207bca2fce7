package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dbcatcher/internal/monitor"
)

// verdictJSON mirrors one entry of GET /api/fleet/verdicts.
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

// sameVerdict reports whether the served verdict is the one Push returned.
func sameVerdict(got verdictJSON, v *monitor.Verdict) bool {
	if got.Tick != v.Tick || got.Start != v.Start || got.Size != v.Size ||
		got.Abnormal != v.Abnormal || got.AbnormalDB != v.AbnormalDB ||
		got.Expansions != v.Expansions || got.Health != v.Health.String() ||
		got.GapCells != v.GapCells || len(got.States) != len(v.States) {
		return false
	}
	for i, s := range v.States {
		if got.States[i] != s.String() {
			return false
		}
	}
	return true
}

// newClient returns a client holding at most one connection to the API,
// kept alive between requests.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// get issues one GET tagged with the client span's id and returns the body
// of a 200 response.
func get(c *http.Client, url string, span int32) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

type readItem struct {
	unit int
	v    *monitor.Verdict
}

// The phases a read's latency is recorded under.
const (
	phaseWarmup = iota
	phaseClosed
	phaseOpen
	numPhases
)

// readBatch is one round's emitted verdicts, handed to the reader.
type readBatch struct {
	due     int64 // run clock: when the round's tick was due
	handoff int64 // run clock: when the feeder handed the batch over
	root    int32 // the round's feeder.tick span
	phase   int
	ack     bool // the feeder waits for this batch (await)
	items   []readItem
}

// verdictReader reads every emitted verdict back over HTTP on one
// keep-alive connection and checks it against what Push returned.
type verdictReader struct {
	base   string
	client *http.Client
	clock  func() int64
	tr     *tracer
	ch     chan *readBatch
	acked  chan struct{}
	done   chan struct{}

	// Owned by the reader goroutine until done is closed. latNs[p] are the
	// latencies of phase p's reads, each from its tick's due time; waitNs
	// are the closed loop's reads' waits from hand-over to start.
	latNs           [numPhases][]float64
	waitNs, getNs   []float64
	reads, failures int64
	problems        []string
}

// startReader starts the reader goroutine. queue bounds the rounds the open
// loop may hand over before the reader catches up; sizing it to an open
// segment's tick count means the feeder never blocks on reads there.
func startReader(base string, clock func() int64, tr *tracer, queue int) *verdictReader {
	r := &verdictReader{
		base: base, client: newClient(), clock: clock, tr: tr,
		ch: make(chan *readBatch, queue), acked: make(chan struct{}), done: make(chan struct{}),
	}
	go r.run()
	return r
}

func (r *verdictReader) run() {
	defer close(r.done)
	for b := range r.ch {
		for _, it := range b.items {
			r.read(b, it)
		}
		if b.ack {
			r.acked <- struct{}{}
		}
	}
}

// submit hands a round's verdicts over. A batch marked ack must be
// followed by await before the next submit.
func (r *verdictReader) submit(b *readBatch) {
	b.handoff = r.clock()
	r.ch <- b
}

// await returns once the last ack batch has been read.
func (r *verdictReader) await() { <-r.acked }

// drain returns once every batch handed over so far has been read.
func (r *verdictReader) drain() {
	r.submit(&readBatch{ack: true})
	r.await()
}

// finish stops the reader after it drains its queue and closes its
// connection.
func (r *verdictReader) finish() {
	close(r.ch)
	<-r.done
	r.client.CloseIdleConnections()
}

func (r *verdictReader) read(b *readBatch, it readItem) {
	start := r.clock()
	ref := r.tr.begin(kVerdictGet, b.root)
	url := fmt.Sprintf("%s/api/fleet/verdicts?unit=%d&since=%d&limit=%d", r.base, it.unit, it.v.Tick-1, fleetHistory)
	body, err := get(r.client, url, ref.id)
	r.tr.end(ref, false)
	end := r.clock()
	r.reads++
	r.getNs = append(r.getNs, float64(end-start))
	r.latNs[b.phase] = append(r.latNs[b.phase], float64(end-b.due))
	if b.phase == phaseClosed {
		r.waitNs = append(r.waitNs, float64(start-b.handoff))
	}
	if err == nil {
		var page struct {
			Verdicts []verdictJSON `json:"verdicts"`
		}
		if err = json.Unmarshal(body, &page); err == nil {
			err = fmt.Errorf("unit %d tick %d: served verdict differs from the one Push returned", it.unit, it.v.Tick)
			if len(page.Verdicts) > 0 && sameVerdict(page.Verdicts[0], it.v) {
				err = nil
			}
		}
	}
	if err != nil {
		r.failures++
		if len(r.problems) < 5 {
			r.problems = append(r.problems, "verdict read: "+err.Error())
		}
	}
}

// dashboard polls the fleet API's read endpoints round-robin at a fixed
// rate on one keep-alive connection, each request timed from when it was
// due.
type dashboard struct {
	base   string
	client *http.Client
	clock  func() int64
	tr     *tracer
	rate   float64
	units  int
	stop   chan struct{}
	done   chan struct{}

	// Owned by the polling goroutine while one runs (between start and
	// halt). latNs[p] are phase p's latencies, each from the read's due
	// time.
	n                int // requests issued, for the round-robin
	latNs            [numPhases][]float64
	statusNs, pageNs []float64
	incidentsNs      []float64
	reads, failures  int64
	problems         []string
}

func newDashboard(base string, clock func() int64, tr *tracer, rate float64, units int) *dashboard {
	return &dashboard{base: base, client: newClient(), clock: clock, tr: tr, rate: rate, units: units}
}

// start polls until halt, request j due at origin + j/rate, recording the
// latencies under phase.
func (d *dashboard) start(origin int64, phase int) {
	d.stop, d.done = make(chan struct{}), make(chan struct{})
	go d.run(origin, phase)
}

// halt stops a running poll and waits for it to return.
func (d *dashboard) halt() {
	if d.stop == nil {
		return
	}
	close(d.stop)
	<-d.done
	d.stop = nil
}

func (d *dashboard) run(origin int64, phase int) {
	defer close(d.done)
	for j := 0; ; j++ {
		due := origin + int64(float64(j)*1e9/d.rate)
		if wait := due - d.clock(); wait > 0 {
			t := time.NewTimer(time.Duration(wait))
			select {
			case <-d.stop:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			select {
			case <-d.stop:
				return
			default:
			}
		}
		var url string
		var kind int
		var into *[]float64
		switch d.n % 3 {
		case 0:
			url, kind, into = d.base+"/api/fleet/status?limit=32", kStatusGet, &d.statusNs
		case 1:
			url, kind, into = fmt.Sprintf("%s/api/fleet/verdicts?unit=%d&limit=16", d.base, (d.n/3)%d.units), kPageGet, &d.pageNs
		default:
			url, kind, into = d.base+"/api/incidents?limit=16", kIncidentsGet, &d.incidentsNs
		}
		d.n++
		begin := d.clock()
		ref := d.tr.begin(kind, -1)
		_, err := get(d.client, url, ref.id)
		d.tr.end(ref, false)
		end := d.clock()
		d.reads++
		*into = append(*into, float64(end-begin))
		d.latNs[phase] = append(d.latNs[phase], float64(end-due))
		if err != nil {
			d.failures++
			if len(d.problems) < 5 {
				d.problems = append(d.problems, "dashboard read: "+err.Error())
			}
		}
	}
}
