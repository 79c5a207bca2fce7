package scrape

import (
	"math"
	"testing"
)

func TestPayloadRoundTrip(t *testing.T) {
	cases := [][]float64{
		{},
		{0},
		{1, -2.5, 3e-17, 1e300, -0.0},
		{math.NaN(), 42.42424242424242, math.NaN()},
		{0.1, 0.2, 0.30000000000000004, math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
	for i, vals := range cases {
		in := Payload{Tick: 1234 + i, DB: i, Values: vals}
		body := AppendBody(nil, &in, FormatJSON)
		var out Payload
		if err := ParseBody(body, &out, FormatJSON); err != nil {
			t.Fatalf("case %d: parse: %v\nbody: %s", i, err, body)
		}
		if out.Tick != in.Tick || out.DB != in.DB || len(out.Values) != len(in.Values) {
			t.Fatalf("case %d: header mismatch: %+v vs %+v", i, out, in)
		}
		for j := range vals {
			a, b := vals[j], out.Values[j]
			if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
				t.Fatalf("case %d value %d: %v -> %v (not bit-exact)", i, j, a, b)
			}
		}
	}
}

func TestPayloadReusesValues(t *testing.T) {
	body := AppendBody(nil, &Payload{Tick: 1, DB: 0, Values: []float64{1, 2, 3}}, FormatJSON)
	p := Payload{Values: make([]float64, 0, 8)}
	backing := p.Values[:cap(p.Values)]
	if err := ParseBody(body, &p, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if len(p.Values) != 3 || &p.Values[0] != &backing[0] {
		t.Fatal("parse did not reuse the values backing array")
	}
}

func TestPayloadRejectsGarbage(t *testing.T) {
	good := string(AppendBody(nil, &Payload{Tick: 7, DB: 2, Values: []float64{1, 2}}, FormatJSON))
	bad := []string{
		"",
		"<<<this is not json at all>>>",
		`{"tick":7}`,
		`{"db":2,"tick":7,"values":[1,2]}`, // wrong field order for the strict parser
		`{"tick":7,"db":2,"values":[1,2]`,  // truncated
		`{"tick":7,"db":2,"values":[1,"x"]}`,
		`{"tick":7,"db":2,"values":[1,2]}trailing`,
		good[:len(good)/2],
	}
	var p Payload
	for _, b := range bad {
		if err := ParseBody([]byte(b), &p, FormatJSON); err == nil {
			t.Errorf("parse accepted %q", b)
		}
	}
	// Whitespace variants of the canonical shape are fine.
	if err := ParseBody([]byte(" {\"tick\": 7 , \"db\": 2 , \"values\": [ 1 , null ] } \n"), &p, FormatJSON); err != nil {
		t.Fatalf("whitespace variant rejected: %v", err)
	}
	if p.Tick != 7 || p.DB != 2 || len(p.Values) != 2 || !math.IsNaN(p.Values[1]) {
		t.Fatalf("whitespace variant parsed wrong: %+v", p)
	}
}
