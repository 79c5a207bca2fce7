package incident

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzRestore feeds arbitrary transition sequences to Restore: corrupt
// sequences must error (never panic), and any accepted sequence must
// rebuild deterministically — two fresh aggregators restoring the same
// journal land on identical fingerprints.
func FuzzRestore(f *testing.F) {
	f.Add([]byte{})
	// A valid open/update/close run, little-endian packed.
	seed := func(ts []Transition) []byte {
		var b []byte
		for _, t := range ts {
			var rec [61]byte
			rec[0] = t.Event
			binary.LittleEndian.PutUint64(rec[1:], t.ID)
			binary.LittleEndian.PutUint64(rec[9:], t.Cluster)
			binary.LittleEndian.PutUint32(rec[17:], uint32(t.Unit))
			binary.LittleEndian.PutUint32(rec[21:], uint32(t.DB))
			binary.LittleEndian.PutUint64(rec[25:], uint64(t.KPIs))
			binary.LittleEndian.PutUint64(rec[33:], uint64(t.FirstTick))
			binary.LittleEndian.PutUint64(rec[41:], uint64(t.LastTick))
			binary.LittleEndian.PutUint32(rec[49:], uint32(t.Count))
			binary.LittleEndian.PutUint64(rec[53:], uint64(t.RoundTick))
			b = append(b, rec[:]...)
		}
		return b
	}
	f.Add(seed([]Transition{
		{Event: TransOpen, ID: 1, Cluster: 1, Unit: 0, DB: 2, KPIs: 4, FirstTick: 100, LastTick: 120, Count: 1, RoundTick: 120},
		{Event: TransUpdate, ID: 1, Cluster: 1, Unit: 0, DB: 2, KPIs: 4, FirstTick: 100, LastTick: 140, Count: 2, RoundTick: 140},
		{Event: TransClose, ID: 1, Cluster: 1, Unit: 0, DB: 2, KPIs: 4, FirstTick: 100, LastTick: 140, Count: 2, RoundTick: 172},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var ts []Transition
		for len(data) >= 61 && len(ts) < 256 {
			ts = append(ts, Transition{
				Event:     data[0],
				ID:        binary.LittleEndian.Uint64(data[1:]),
				Cluster:   binary.LittleEndian.Uint64(data[9:]),
				Unit:      int(int32(binary.LittleEndian.Uint32(data[17:]))),
				DB:        int(int32(binary.LittleEndian.Uint32(data[21:]))),
				KPIs:      KPISet(binary.LittleEndian.Uint64(data[25:])),
				FirstTick: int(int64(binary.LittleEndian.Uint64(data[33:]))),
				LastTick:  int(int64(binary.LittleEndian.Uint64(data[41:]))),
				Count:     int(int32(binary.LittleEndian.Uint32(data[49:]))),
				RoundTick: int(int64(binary.LittleEndian.Uint64(data[53:]))),
			})
			data = data[61:]
		}
		cfg := Config{ProximityTicks: 8, CloseAfter: 16, MaxHistory: 32, MaxOpen: 128}
		a := New(cfg)
		if err := a.Restore(ts); err != nil {
			return
		}
		b := New(cfg)
		if err := b.Restore(ts); err != nil {
			t.Fatalf("second Restore of an accepted journal failed: %v", err)
		}
		fa, fb := a.Fingerprint(), b.Fingerprint()
		if !bytes.Equal(fa, fb) {
			t.Fatalf("restore nondeterministic:\n%s\n---\n%s", fa, fb)
		}
	})
}
