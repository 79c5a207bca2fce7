package scrape

import (
	"math"
	"testing"
)

// FuzzPromParse feeds arbitrary bytes to the exposition parser: it must
// never panic, and anything it accepts must re-render and re-parse to the
// same payload bit for bit (the round-trip property the bit-identicality
// guarantee rests on).
func FuzzPromParse(f *testing.F) {
	healthy := appendProm(nil, &Payload{Tick: 3, DB: 1, Values: []float64{1.5, math.NaN(), -7e3}})
	f.Add(healthy)
	f.Add(healthy[:len(healthy)/2])                         // mid-metric truncation
	f.Add(append(append([]byte{}, healthy...), healthy...)) // duplicate series
	f.Add([]byte("dbcatcher_tick{db=\"0\"} 1\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} +Inf\n"))
	f.Add([]byte("dbcatcher_tick{db=\"0\"} 1\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} NaN\n"))
	f.Add([]byte("# comment only\n"))
	f.Add(appendPayload(nil, &Payload{Tick: 3, DB: 1, Values: []float64{1, 2}}))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBodySize {
			return
		}
		var p Payload
		if err := parseProm(body, &p); err != nil {
			return
		}
		if p.DB < 0 || p.Tick < 0 || len(p.Values) == 0 {
			t.Fatalf("accepted payload out of range: %+v", p)
		}
		again := appendProm(nil, &p)
		var q Payload
		if err := parseProm(again, &q); err != nil {
			t.Fatalf("re-render does not re-parse: %v\n%s", err, again)
		}
		if q.Tick != p.Tick || q.DB != p.DB || len(q.Values) != len(p.Values) {
			t.Fatalf("round trip shape changed: %+v -> %+v", p, q)
		}
		for i := range p.Values {
			if math.Float64bits(q.Values[i]) != math.Float64bits(p.Values[i]) {
				t.Fatalf("value %d changed: %v -> %v", i, p.Values[i], q.Values[i])
			}
		}
	})
}
