package tracefile

import (
	"math"
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary text to the CSV trace parser: it must never
// panic, and any successfully parsed trace must validate and hold no ±Inf
// cell.
func FuzzRead(f *testing.F) {
	f.Add(header() + "\n0,0," + zeros() + "\n")
	f.Add("tick,database\n")
	f.Add("garbage")
	f.Add(header() + "\n0,0," + strings.Replace(zeros(), "0", "Inf", 1) + "\n")
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			return
		}
		u, err := Read(strings.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		if err := u.Validate(); err != nil {
			t.Fatalf("parsed trace fails validation: %v", err)
		}
		for k, row := range u.Data {
			for d, s := range row {
				for i, v := range s.Values {
					if math.IsInf(v, 0) {
						t.Fatalf("parsed trace holds %v at tick %d, KPI %d, database %d", v, i, k, d)
					}
				}
			}
		}
	})
}
