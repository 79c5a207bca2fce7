// Package kpi enumerates the 14 key performance indicators that exhibit the
// Unit KPI Correlation (UKPIC) phenomenon in the DBCatcher paper (Table II),
// together with their correlation type: P-R means the indicator correlates
// between the primary and its replicas, R-R between replicas.
package kpi

import "fmt"

// KPI identifies one of the monitored key performance indicators.
type KPI int

// The 14 indicators of Table II, in the paper's order.
const (
	ComInsert KPI = iota
	ComUpdate
	CPUUtilization
	BufferPoolReadRequests
	InnodbDataWrites
	InnodbDataWritten
	InnodbRowsDeleted
	InnodbRowsInserted
	InnodbRowsRead
	InnodbRowsUpdated
	RequestsPerSecond
	TotalRequests
	RealCapacity
	TransactionsPerSecond

	numKPIs
)

// Count is the number of monitored indicators (the paper's Q).
const Count = int(numKPIs)

// CorrType describes which database roles an indicator correlates across.
type CorrType int

const (
	// RR: the indicator correlates among replica databases only.
	RR CorrType = iota
	// PRRR: the indicator correlates both primary-replica and
	// replica-replica.
	PRRR
)

var names = [Count]string{
	"Com Insert",
	"Com Update",
	"CPU Utilization",
	"BufferPool Read Requests",
	"Innodb Data Writes",
	"Innodb Data Written",
	"Innodb Rows Deleted",
	"Innodb Rows Inserted",
	"Innodb Rows Read",
	"Innodb Rows Updated",
	"Requests Per Second",
	"Total Requests",
	"Real Capacity",
	"Transactions Per Second",
}

// corrTypes reproduces the Correlation Type column of Table II.
var corrTypes = [Count]CorrType{
	ComInsert:              RR,
	ComUpdate:              RR,
	CPUUtilization:         PRRR,
	BufferPoolReadRequests: PRRR,
	InnodbDataWrites:       PRRR,
	InnodbDataWritten:      PRRR,
	InnodbRowsDeleted:      RR,
	InnodbRowsInserted:     RR,
	InnodbRowsRead:         PRRR,
	InnodbRowsUpdated:      PRRR,
	RequestsPerSecond:      PRRR,
	TotalRequests:          PRRR,
	RealCapacity:           PRRR,
	TransactionsPerSecond:  RR,
}

// Valid reports whether k names one of the 14 indicators.
func (k KPI) Valid() bool { return k >= 0 && k < numKPIs }

// String returns the indicator's display name as printed in Table II.
func (k KPI) String() string {
	if !k.Valid() {
		return fmt.Sprintf("KPI(%d)", int(k))
	}
	return names[k]
}

// Correlation returns the indicator's correlation type from Table II.
func (k KPI) Correlation() CorrType {
	if !k.Valid() {
		panic(fmt.Sprintf("kpi: invalid KPI %d", int(k)))
	}
	return corrTypes[k]
}

// String renders the correlation type in the paper's notation.
func (c CorrType) String() string {
	switch c {
	case RR:
		return "R-R"
	case PRRR:
		return "P-R, R-R"
	default:
		return fmt.Sprintf("CorrType(%d)", int(c))
	}
}

// All returns every indicator in Table II order.
func All() []KPI {
	out := make([]KPI, Count)
	for i := range out {
		out[i] = KPI(i)
	}
	return out
}
