// Package timeseries defines the time-series containers shared across the
// repository: Series for a single KPI stream, UnitSeries for the full
// per-unit multivariate layout (KPI × database), and a fixed-capacity ring
// buffer used by the monitoring queues.
//
// All series in this system share the paper's collection model: one data
// point every IntervalSeconds (5 s by default), aligned across databases of
// a unit.
package timeseries

import (
	"errors"
	"fmt"
)

// DefaultIntervalSeconds is the paper's collection interval between data
// points (§III-A: "a collection interval of 5 seconds among data points").
const DefaultIntervalSeconds = 5

// Series is a uniformly sampled univariate time series.
type Series struct {
	// Name is a free-form identifier (usually "<unit>/<db>/<kpi>").
	Name string
	// StartUnix is the Unix timestamp of the first point, in seconds.
	StartUnix int64
	// IntervalSeconds is the spacing between points.
	IntervalSeconds int
	// Values holds the observations.
	Values []float64
}

// New returns an empty series with the default 5 s interval.
func New(name string) *Series {
	return &Series{Name: name, IntervalSeconds: DefaultIntervalSeconds}
}

// FromValues wraps values (not copied) into a series with the default
// interval.
func FromValues(name string, values []float64) *Series {
	return &Series{Name: name, IntervalSeconds: DefaultIntervalSeconds, Values: values}
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// At returns the i-th value.
func (s *Series) At(i int) float64 { return s.Values[i] }

// TimeAt returns the Unix timestamp of point i.
func (s *Series) TimeAt(i int) int64 {
	return s.StartUnix + int64(i*s.IntervalSeconds)
}

// Append adds values to the end of the series.
func (s *Series) Append(values ...float64) { s.Values = append(s.Values, values...) }

// ErrBadWindow is returned when a requested window falls outside the series.
var ErrBadWindow = errors.New("timeseries: window out of range")

// Window returns the sub-series [start, start+n). The returned slice shares
// backing storage with s.
func (s *Series) Window(start, n int) ([]float64, error) {
	if start < 0 || n < 0 || start+n > len(s.Values) {
		return nil, fmt.Errorf("%w: [%d, %d) of %d", ErrBadWindow, start, start+n, len(s.Values))
	}
	return s.Values[start : start+n], nil
}

// Slice returns a new Series covering points [start, end), sharing storage.
func (s *Series) Slice(start, end int) (*Series, error) {
	if start < 0 || end < start || end > len(s.Values) {
		return nil, fmt.Errorf("%w: [%d, %d) of %d", ErrBadWindow, start, end, len(s.Values))
	}
	return &Series{
		Name:            s.Name,
		StartUnix:       s.TimeAt(start),
		IntervalSeconds: s.IntervalSeconds,
		Values:          s.Values[start:end],
	}, nil
}

// UnitSeries holds the complete multivariate series of one unit:
// Data[k][d] is the series of KPI k on database d. All series have equal
// length and aligned timestamps.
type UnitSeries struct {
	Unit      string
	Databases int
	KPIs      int
	Data      [][]*Series // [KPIs][Databases]
}

// NewUnitSeries allocates an empty layout for the given shape.
func NewUnitSeries(unit string, kpis, databases int) *UnitSeries {
	u := &UnitSeries{Unit: unit, Databases: databases, KPIs: kpis}
	u.Data = make([][]*Series, kpis)
	for k := range u.Data {
		u.Data[k] = make([]*Series, databases)
		for d := range u.Data[k] {
			u.Data[k][d] = New(fmt.Sprintf("%s/db%d/kpi%d", unit, d, k))
		}
	}
	return u
}

// Len returns the number of points per series (they are aligned), 0 when
// empty.
func (u *UnitSeries) Len() int {
	if u.KPIs == 0 || u.Databases == 0 {
		return 0
	}
	return u.Data[0][0].Len()
}

// Series returns the stream of KPI k on database d.
func (u *UnitSeries) Series(k, d int) *Series { return u.Data[k][d] }

// Validate checks that the layout is rectangular and aligned.
func (u *UnitSeries) Validate() error {
	if len(u.Data) != u.KPIs {
		return fmt.Errorf("timeseries: unit %s has %d KPI rows, want %d", u.Unit, len(u.Data), u.KPIs)
	}
	n := -1
	for k, row := range u.Data {
		if len(row) != u.Databases {
			return fmt.Errorf("timeseries: unit %s KPI %d has %d databases, want %d", u.Unit, k, len(row), u.Databases)
		}
		for d, s := range row {
			if s == nil {
				return fmt.Errorf("timeseries: unit %s missing series (%d, %d)", u.Unit, k, d)
			}
			if n == -1 {
				n = s.Len()
			} else if s.Len() != n {
				return fmt.Errorf("timeseries: unit %s series (%d, %d) has %d points, want %d", u.Unit, k, d, s.Len(), n)
			}
		}
	}
	return nil
}

// SliceRange returns a view of points [start, end) for every series.
func (u *UnitSeries) SliceRange(start, end int) (*UnitSeries, error) {
	out := &UnitSeries{Unit: u.Unit, Databases: u.Databases, KPIs: u.KPIs}
	out.Data = make([][]*Series, u.KPIs)
	for k := range u.Data {
		out.Data[k] = make([]*Series, u.Databases)
		for d := range u.Data[k] {
			s, err := u.Data[k][d].Slice(start, end)
			if err != nil {
				return nil, err
			}
			out.Data[k][d] = s
		}
	}
	return out, nil
}
