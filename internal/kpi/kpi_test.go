package kpi

import "testing"

func TestCount(t *testing.T) {
	if Count != 14 {
		t.Fatalf("Count = %d, want 14 (Table II)", Count)
	}
	if len(All()) != 14 {
		t.Fatalf("All() has %d entries", len(All()))
	}
}

func TestNamesMatchTableII(t *testing.T) {
	want := map[KPI]string{
		ComInsert:              "Com Insert",
		CPUUtilization:         "CPU Utilization",
		RequestsPerSecond:      "Requests Per Second",
		RealCapacity:           "Real Capacity",
		TransactionsPerSecond:  "Transactions Per Second",
		BufferPoolReadRequests: "BufferPool Read Requests",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), name)
		}
	}
}

func TestCorrelationTypes(t *testing.T) {
	// Spot-check Table II rows.
	rr := []KPI{ComInsert, ComUpdate, InnodbRowsDeleted, InnodbRowsInserted, TransactionsPerSecond}
	for _, k := range rr {
		if k.Correlation() != RR {
			t.Errorf("%v should be R-R", k)
		}
	}
	both := []KPI{CPUUtilization, BufferPoolReadRequests, InnodbDataWrites,
		InnodbDataWritten, InnodbRowsRead, InnodbRowsUpdated,
		RequestsPerSecond, TotalRequests, RealCapacity}
	for _, k := range both {
		if k.Correlation() != PRRR {
			t.Errorf("%v should be P-R, R-R", k)
		}
	}
}

func TestCorrTypeString(t *testing.T) {
	if RR.String() != "R-R" {
		t.Errorf("RR = %q", RR.String())
	}
	if PRRR.String() != "P-R, R-R" {
		t.Errorf("PRRR = %q", PRRR.String())
	}
}

func TestInvalidKPI(t *testing.T) {
	bad := KPI(99)
	if bad.Valid() {
		t.Fatal("KPI(99) should be invalid")
	}
	if bad.String() != "KPI(99)" {
		t.Fatalf("invalid String = %q", bad.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Correlation on invalid KPI should panic")
		}
	}()
	bad.Correlation()
}
