package feedback

import (
	"sync"
	"testing"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/thresholds"
	"dbcatcher/internal/workload"
)

func TestStoreRingBehaviour(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 5; i++ {
		s.Add(Record{Start: i})
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	recent := s.Recent(3)
	if recent[0].Start != 2 || recent[2].Start != 4 {
		t.Fatalf("Recent = %+v", recent)
	}
	if got := s.Recent(99); len(got) != 3 {
		t.Fatalf("Recent over-len = %d", len(got))
	}
}

func TestStorePanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStore(0)
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(Record{Predicted: true, Actual: true})
				s.FMeasure(10)
			}
		}()
	}
	wg.Wait()
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreFMeasure(t *testing.T) {
	s := NewStore(10)
	// 3 TP, 1 FP, 1 FN, 1 TN -> P=0.75, R=0.75, F=0.75.
	s.Add(Record{Predicted: true, Actual: true})
	s.Add(Record{Predicted: true, Actual: true})
	s.Add(Record{Predicted: true, Actual: true})
	s.Add(Record{Predicted: true, Actual: false})
	s.Add(Record{Predicted: false, Actual: true})
	s.Add(Record{Predicted: false, Actual: false})
	if got := s.FMeasure(6); got != 0.75 {
		t.Fatalf("F = %v", got)
	}
}

func TestPolicyActivation(t *testing.T) {
	p := Policy{Criterion: 0.75, MinRecords: 4, Window: 4}
	s := NewStore(10)
	// Too few records: never retrain.
	s.Add(Record{Predicted: true, Actual: false})
	if p.ShouldRetrain(s) {
		t.Fatal("should not retrain before MinRecords")
	}
	// Fill with bad performance.
	for i := 0; i < 4; i++ {
		s.Add(Record{Predicted: true, Actual: false})
	}
	if !p.ShouldRetrain(s) {
		t.Fatal("should retrain on bad recent performance")
	}
	// Now good performance pushes F above the criterion.
	for i := 0; i < 4; i++ {
		s.Add(Record{Predicted: true, Actual: true})
	}
	if p.ShouldRetrain(s) {
		t.Fatal("should not retrain when recent records are good")
	}
}

func TestDefaultPolicy(t *testing.T) {
	p := DefaultPolicy()
	if p.Criterion != 0.75 {
		t.Fatalf("criterion = %v, want 0.75 (§IV-D3)", p.Criterion)
	}
}

func TestLearnerRelearn(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 500, Seed: 20, Profile: workload.SysbenchI,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
		Ticks: 500, Databases: 5, TargetRatio: 0.06,
	}, mathx.NewRNG(21))
	labels, err := anomaly.Inject(u, events, mathx.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	samples := []thresholds.Sample{{
		Provider: detect.NewCachedProvider(detect.NewProvider(u.Series, nil, nil)),
		Labels:   labels,
	}}
	l := Learner{Searcher: thresholds.GA{Seed: 23}}
	th, fit, err := l.Relearn(14, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(th.Alpha) != 14 {
		t.Fatalf("learned %d alphas", len(th.Alpha))
	}
	if fit <= 0 {
		t.Fatalf("learned fitness %v", fit)
	}
}

func TestLearnerRelearnNoSamples(t *testing.T) {
	l := Learner{}
	if _, _, err := l.Relearn(14, nil); err == nil {
		t.Fatal("no samples should error")
	}
}

// --- Eviction boundary and persistence-integration tests ---

func TestStoreCapacityOne(t *testing.T) {
	s := NewStore(1)
	if got := s.Snapshot(); len(got) != 0 {
		t.Fatalf("empty store snapshot = %v", got)
	}
	for i := 0; i < 4; i++ {
		s.Add(Record{Start: i})
		if s.Len() != 1 {
			t.Fatalf("after add %d: Len = %d", i, s.Len())
		}
		recent := s.Recent(5)
		if len(recent) != 1 || recent[0].Start != i {
			t.Fatalf("after add %d: Recent = %v", i, recent)
		}
		snap := s.Snapshot()
		if len(snap) != 1 || snap[0].Start != i {
			t.Fatalf("after add %d: Snapshot = %v", i, snap)
		}
	}
}

func TestStoreWraparoundOrdering(t *testing.T) {
	s := NewStore(4)
	// Push enough to wrap several times; the ring must always surface the
	// newest 4 in append order.
	for i := 0; i < 11; i++ {
		s.Add(Record{Start: i, Predicted: i%2 == 0})
		want := i + 1
		if want > 4 {
			want = 4
		}
		snap := s.Snapshot()
		if len(snap) != want {
			t.Fatalf("after add %d: %d records, want %d", i, len(snap), want)
		}
		for j, r := range snap {
			if r.Start != i-want+1+j {
				t.Fatalf("after add %d: snapshot order %v", i, snap)
			}
		}
	}
	// Recent(n) is the suffix of Snapshot().
	recent := s.Recent(2)
	if len(recent) != 2 || recent[0].Start != 9 || recent[1].Start != 10 {
		t.Fatalf("Recent(2) = %v", recent)
	}
}

func TestNewStoreFromTruncatesToCapacity(t *testing.T) {
	recs := make([]Record, 7)
	for i := range recs {
		recs[i] = Record{Start: i}
	}
	s := NewStoreFrom(3, recs)
	snap := s.Snapshot()
	if len(snap) != 3 || snap[0].Start != 4 || snap[2].Start != 6 {
		t.Fatalf("preload kept %v, want the newest 3", snap)
	}
	// Preloading under capacity keeps everything.
	s2 := NewStoreFrom(10, recs[:2])
	if got := s2.Snapshot(); len(got) != 2 || got[0].Start != 0 {
		t.Fatalf("under-capacity preload = %v", got)
	}
	// A preloaded store keeps accepting appends with correct eviction.
	s.Add(Record{Start: 99})
	snap = s.Snapshot()
	if len(snap) != 3 || snap[2].Start != 99 || snap[0].Start != 5 {
		t.Fatalf("append after preload = %v", snap)
	}
}

// captureJournal records journaled entries; it must see every Add exactly
// once, in order, and nothing from preloads.
type captureJournal struct {
	mu   sync.Mutex
	recs []Record
}

func (j *captureJournal) JournalRecord(r Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, r)
}

func TestStoreJournalSeesAppendsNotPreloads(t *testing.T) {
	j := &captureJournal{}
	s := NewStoreFrom(2, []Record{{Start: 100}, {Start: 101}})
	s.SetJournal(j)
	for i := 0; i < 5; i++ {
		s.Add(Record{Start: i})
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.recs) != 5 {
		t.Fatalf("journal saw %d records, want 5", len(j.recs))
	}
	for i, r := range j.recs {
		if r.Start != i {
			t.Fatalf("journal order: %v", j.recs)
		}
	}
}

// Concurrent Append/Snapshot/Recent must be race-free (run under -race) and
// every snapshot must be internally consistent: monotonically increasing
// Start values with no gaps larger than the writer's progress allows.
func TestStoreConcurrentAppendSnapshot(t *testing.T) {
	s := NewStore(8)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := s.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i].Start != snap[i-1].Start+1 {
					t.Errorf("torn snapshot: %v", snap)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = s.Recent(3)
			_ = s.Len()
		}
	}()
	for i := 0; i < 5000; i++ {
		s.Add(Record{Start: i})
	}
	close(done)
	wg.Wait()
}
