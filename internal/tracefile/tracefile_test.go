package tracefile

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/kpi"
)

func simUnit(t *testing.T) *cluster.Unit {
	t.Helper()
	u, err := cluster.Simulate(cluster.Config{Name: "trace", Ticks: 50, Seed: 1, Databases: 3})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestRoundTrip(t *testing.T) {
	u := simUnit(t)
	var buf bytes.Buffer
	if err := Write(&buf, u.Series); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, "trace")
	if err != nil {
		t.Fatal(err)
	}
	if back.Databases != 3 || back.Len() != 50 {
		t.Fatalf("shape = %d dbs, %d ticks", back.Databases, back.Len())
	}
	for k := 0; k < kpi.Count; k++ {
		for d := 0; d < 3; d++ {
			a := u.Series.Data[k][d].Values
			b := back.Data[k][d].Values
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("kpi %d db %d tick %d: %v != %v", k, d, i, a[i], b[i])
				}
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	u := simUnit(t)
	path := filepath.Join(t.TempDir(), "unit.csv")
	if err := WriteFile(path, u.Series); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path, "x")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 50 {
		t.Fatal("file round trip lost data")
	}
}

func TestReadShuffledRows(t *testing.T) {
	// Rows in arbitrary order must still assemble correctly.
	csvData := header() + "\n" +
		"1,0," + zeros() + "\n" +
		"0,1," + zeros() + "\n" +
		"1,1," + zeros() + "\n" +
		"0,0," + zeros() + "\n"
	u, err := Read(strings.NewReader(csvData), "s")
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 || u.Databases != 2 {
		t.Fatalf("shape = %d ticks, %d dbs", u.Len(), u.Databases)
	}
}

func header() string {
	cols := []string{"tick", "database"}
	for _, k := range kpi.All() {
		cols = append(cols, k.String())
	}
	return strings.Join(cols, ",")
}

func zeros() string {
	return strings.TrimSuffix(strings.Repeat("0,", kpi.Count), ",")
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":          header() + "\n",
		"unknown column": "tick,database,Nope\n0,0,1\n",
		"missing kpis":   "tick,database,CPU Utilization\n0,0,1\n",
		"bad tick":       header() + "\nx,0," + zeros() + "\n",
		"bad db":         header() + "\n0,-1," + zeros() + "\n",
		"bad value":      header() + "\n0,0," + strings.Replace(zeros(), "0", "abc", 1) + "\n",
		"inf value":      header() + "\n0,0," + strings.Replace(zeros(), "0", "inf", 1) + "\n",
		"+Inf value":     header() + "\n0,0," + strings.Replace(zeros(), "0", "+Inf", 1) + "\n",
		"-Infinity":      header() + "\n0,0," + strings.Replace(zeros(), "0", "-Infinity", 1) + "\n",
		"incomplete": header() + "\n0,0," + zeros() + "\n0,1," + zeros() + "\n" +
			"1,0," + zeros() + "\n", // missing (1,1)
		"duplicate":  header() + "\n0,0," + zeros() + "\n0,0," + zeros() + "\n",
		"bad header": "a,b,c\n",
	}
	for name, data := range cases {
		if _, err := Read(strings.NewReader(data), "x"); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Like the Prometheus parser, ±Inf is a non-finite value, reported
	// with its line.
	if _, err := Read(strings.NewReader(cases["inf value"]), "x"); err == nil ||
		!strings.Contains(err.Error(), "line 2: non-finite value") {
		t.Errorf("inf value: error %v, want a line-numbered non-finite value error", err)
	}
}

func TestWriteRejectsNonStandardLayout(t *testing.T) {
	u := simUnit(t)
	u.Series.KPIs = 3
	u.Series.Data = u.Series.Data[:3]
	var buf bytes.Buffer
	if err := Write(&buf, u.Series); err == nil {
		t.Fatal("non-14-KPI layout should be rejected")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.csv"), "x"); err == nil {
		t.Fatal("missing file should error")
	}
}
