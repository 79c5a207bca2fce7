package scrape

import (
	"math"
	"testing"
)

// fuzzUnits are the healthy bodies both wire fuzzers start from: one
// database, and a three-database unit with a NaN cell.
var fuzzUnits = [][]Payload{
	{{Tick: 3, DB: 1, Values: []float64{1.5, math.NaN(), -7e3}}},
	{
		{Tick: 3, DB: 0, Values: []float64{1, 2}},
		{Tick: 3, DB: 2, Values: []float64{math.NaN(), -0.0}},
		{Tick: 4, DB: 7, Values: []float64{1e300, 5e-324}},
	},
}

// checkUnitRoundTrip is the property both fuzzers assert: ParseUnit never
// panics, and anything it accepts lists at least one database in strictly
// increasing order and re-renders and re-parses to the same payloads bit
// for bit (the round trip the bit-identicality guarantee rests on).
func checkUnitRoundTrip(t *testing.T, body []byte, f Format) {
	if len(body) > maxBodySize {
		return
	}
	ps, err := ParseUnit(body, nil, f)
	if err != nil {
		return
	}
	if len(ps) == 0 {
		t.Fatal("accepted a body carrying no database")
	}
	for i, p := range ps {
		if f == FormatProm && (p.DB < 0 || p.Tick < 0 || len(p.Values) == 0) {
			t.Fatalf("accepted payload out of range: %+v", p)
		}
		if i > 0 && p.DB <= ps[i-1].DB {
			t.Fatalf("accepted databases out of order: %d after %d", p.DB, ps[i-1].DB)
		}
	}
	again := AppendUnit(nil, ps, f)
	qs, err := ParseUnit(again, nil, f)
	if err != nil {
		t.Fatalf("re-render does not re-parse: %v\n%s", err, again)
	}
	if len(qs) != len(ps) {
		t.Fatalf("round trip carries %d databases, want %d", len(qs), len(ps))
	}
	for i := range ps {
		p, q := ps[i], qs[i]
		if q.Tick != p.Tick || q.DB != p.DB || len(q.Values) != len(p.Values) {
			t.Fatalf("round trip shape changed: %+v -> %+v", p, q)
		}
		for k := range p.Values {
			if math.Float64bits(q.Values[k]) != math.Float64bits(p.Values[k]) {
				t.Fatalf("db %d value %d changed: %v -> %v", p.DB, k, p.Values[k], q.Values[k])
			}
		}
	}
}

// FuzzPromParse feeds arbitrary bytes to the exposition parser.
func FuzzPromParse(f *testing.F) {
	for _, ps := range fuzzUnits {
		healthy := AppendUnit(nil, ps, FormatProm)
		f.Add(healthy)
		f.Add(healthy[:len(healthy)/2])                         // mid-metric truncation
		f.Add(append(append([]byte{}, healthy...), healthy...)) // duplicate series
	}
	f.Add([]byte("dbcatcher_tick{db=\"0\"} 1\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} +Inf\n"))
	f.Add([]byte("dbcatcher_tick{db=\"0\"} 1\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} NaN\n"))
	f.Add([]byte("dbcatcher_tick{db=\"0\"} 1\ndbcatcher_tick{db=\"1\"} 1\ndbcatcher_kpi{db=\"1\",kpi=\"0\"} 2\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} 1\n"))
	f.Add([]byte("dbcatcher_tick{db=\"0\"} 1\ndbcatcher_kpi{db=\"0\",kpi=\"0\"} 1\ndbcatcher_tick{db=\"1\"} 1\n"))
	f.Add([]byte("# comment only\n"))
	f.Add(AppendUnit(nil, fuzzUnits[1], FormatJSON))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkUnitRoundTrip(t, body, FormatProm)
	})
}

// FuzzPayloadParse feeds arbitrary bytes to the JSON parser, object and
// array.
func FuzzPayloadParse(f *testing.F) {
	for _, ps := range fuzzUnits {
		healthy := AppendUnit(nil, ps, FormatJSON)
		f.Add(healthy)
		f.Add(healthy[:len(healthy)/2])
		f.Add(append(append([]byte{}, healthy...), healthy...))
	}
	f.Add([]byte(`[{"tick":1,"db":0,"values":[1]}]`))
	f.Add([]byte(`[{"tick":1,"db":1,"values":[1]},{"tick":1,"db":0,"values":[2]}]`))
	f.Add([]byte(`[{"tick":1,"db":0,"values":[]},{"tick":1,"db":0,"values":[null]}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(` [ {"tick": 2, "db": 3, "values": [ 1e-7 , null ] } ] `))
	f.Add(AppendUnit(nil, fuzzUnits[1], FormatProm))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkUnitRoundTrip(t, body, FormatJSON)
	})
}
