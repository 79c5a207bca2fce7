// Package feedback implements DBCatcher's online feedback module (§III-A,
// §III-D): DBAs mark the judgment records produced by the streaming
// detection module; when the detection performance computed from recent
// records falls below the activation criterion (75% F-Measure in §IV-D3),
// the adaptive threshold learning policy re-fits the thresholds from those
// records.
package feedback

import (
	"fmt"
	"sync"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/metrics"
	"dbcatcher/internal/thresholds"
	"dbcatcher/internal/window"
)

// Record is one DBA-marked judgment record: what the detector said about a
// window and what the DBA decided was true.
type Record struct {
	// Start and Size identify the judged window.
	Start, Size int
	// Predicted is the detector's verdict (true = abnormal).
	Predicted bool
	// Actual is the DBA's marking.
	Actual bool
}

// Journal receives every appended record for durable storage (the WAL in
// internal/store implements it). JournalRecord is called with the store's
// mutex held, in append order; implementations must not call back into the
// Store.
type Journal interface {
	JournalRecord(Record)
}

// Store keeps the most recent judgment records in a bounded ring. It is
// safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	recs     []Record
	head     int
	size     int
	appended int
	journal  Journal
}

// NewStore returns a store holding up to capacity records.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		panic("feedback: store capacity must be positive")
	}
	return &Store{recs: make([]Record, capacity)}
}

// NewStoreFrom returns a store preloaded with previously persisted records
// (oldest first, e.g. recovered from a snapshot + WAL replay); only the
// most recent capacity records are kept. Preloading does not journal.
func NewStoreFrom(capacity int, recs []Record) *Store {
	s := NewStore(capacity)
	if len(recs) > capacity {
		recs = recs[len(recs)-capacity:]
	}
	for _, r := range recs {
		s.add(r)
	}
	return s
}

// SetJournal attaches (or, with nil, detaches) the durable journal. Attach
// it before streaming starts; records appended earlier are not replayed
// into it.
func (s *Store) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// Add appends a record, evicting the oldest when full, and journals it.
func (s *Store) Add(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.add(r)
	if s.journal != nil {
		s.journal.JournalRecord(r)
	}
}

func (s *Store) add(r Record) {
	s.appended++
	if s.size < len(s.recs) {
		s.recs[(s.head+s.size)%len(s.recs)] = r
		s.size++
		return
	}
	s.recs[s.head] = r
	s.head = (s.head + 1) % len(s.recs)
}

// Appended returns the number of records ever added to the store
// (including preloads and records since evicted). The monotone counter
// lets the relearning supervisor measure label arrival between attempts
// without being confused by ring eviction.
func (s *Store) Appended() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Recent returns up to n of the most recent records, oldest first.
func (s *Store) Recent(n int) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.size {
		n = s.size
	}
	out := make([]Record, n)
	start := s.size - n
	for i := 0; i < n; i++ {
		out[i] = s.recs[(s.head+start+i)%len(s.recs)]
	}
	return out
}

// Snapshot returns all stored records, oldest first (the persistence
// layer's point-in-time capture).
func (s *Store) Snapshot() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, s.size)
	for i := 0; i < s.size; i++ {
		out[i] = s.recs[(s.head+i)%len(s.recs)]
	}
	return out
}

// Split partitions the stored records into a training set and a held-out
// validation set, oldest first within each. The holdout receives
// floor(ratio * Len()) records — at least one when 0 < ratio and at least
// two records exist — chosen by a seeded Fisher-Yates permutation, so the
// split is deterministic for a given (contents, seed) pair and the two
// slices are always disjoint. Both slices are copies; mutating them never
// touches the ring.
func (s *Store) Split(ratio float64, seed uint64) (train, holdout []Record) {
	all := s.Snapshot()
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	h := int(ratio * float64(len(all)))
	if h == 0 && ratio > 0 && len(all) >= 2 {
		h = 1
	}
	if h == 0 {
		return all, nil
	}
	if h >= len(all) {
		return nil, all
	}
	held := make([]bool, len(all))
	for _, i := range mathx.NewRNG(seed).Perm(len(all))[:h] {
		held[i] = true
	}
	train = make([]Record, 0, len(all)-h)
	holdout = make([]Record, 0, h)
	for i, r := range all {
		if held[i] {
			holdout = append(holdout, r)
		} else {
			train = append(train, r)
		}
	}
	return train, holdout
}

// Corrections counts the DBA corrections — records whose marking
// contradicts the detector's verdict — among the n most recent records.
func (s *Store) Corrections(n int) int {
	c := 0
	for _, r := range s.Recent(n) {
		if r.Predicted != r.Actual {
			c++
		}
	}
	return c
}

// Confusion scores the n most recent records.
func (s *Store) Confusion(n int) metrics.Confusion {
	var c metrics.Confusion
	for _, r := range s.Recent(n) {
		c.Add(r.Predicted, r.Actual)
	}
	return c
}

// FMeasure returns the F-Measure over the n most recent records.
func (s *Store) FMeasure(n int) float64 { return s.Confusion(n).FMeasure() }

// Policy decides when the adaptive threshold learning is activated.
type Policy struct {
	// Criterion is the minimum acceptable F-Measure (§IV-D3 uses 75%).
	Criterion float64
	// MinRecords is the number of recent records required before the
	// policy judges performance at all.
	MinRecords int
	// Window is how many recent records the F-Measure covers; 0 means
	// MinRecords.
	Window int
}

// DefaultPolicy returns the paper's setting: retrain when F drops below
// 75%, judged over the last 200 records once at least 50 exist.
func DefaultPolicy() Policy {
	return Policy{Criterion: 0.75, MinRecords: 50, Window: 200}
}

// ShouldRetrain reports whether recent performance violates the criterion.
func (p Policy) ShouldRetrain(s *Store) bool {
	if s.Len() < p.MinRecords {
		return false
	}
	w := p.Window
	if w == 0 {
		w = p.MinRecords
	}
	return s.FMeasure(w) < p.Criterion
}

// Learner re-fits thresholds from labelled samples using a configured
// search policy (the GA by default).
type Learner struct {
	// Searcher is the optimization policy; nil means the default GA.
	Searcher thresholds.Searcher
	// Flex is the window configuration used during fitness evaluation.
	Flex window.FlexConfig
}

// Relearn runs the search over the samples and returns the new thresholds
// with their fitness. q is the KPI count.
func (l Learner) Relearn(q int, samples []thresholds.Sample) (window.Thresholds, float64, error) {
	if len(samples) == 0 {
		return window.Thresholds{}, 0, fmt.Errorf("feedback: no samples to relearn from")
	}
	searcher := l.Searcher
	if searcher == nil {
		searcher = thresholds.GA{}
	}
	flex := l.Flex
	if flex == (window.FlexConfig{}) {
		flex = window.DefaultFlexConfig()
	}
	// Each fitness evaluation fans out across the labelled samples over
	// GOMAXPROCS: every per-unit detection pass is independent, and the
	// score is identical to the serial walk.
	fitness := thresholds.ParallelDetectorFitness(samples, flex, 0)
	res := searcher.Search(q, fitness)
	if err := res.Best.Validate(q); err != nil {
		return window.Thresholds{}, 0, err
	}
	return res.Best, res.Fitness, nil
}
