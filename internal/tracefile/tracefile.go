// Package tracefile reads and writes unit KPI series as CSV, the
// integration path for real monitoring exports (the paper points to the
// Tencent Cloud "get KPI time series" API [32]; any system that can dump
// per-database KPI samples to CSV can feed this detector).
//
// Format: a header row, then one row per (tick, database):
//
//	tick,database,<kpi name>,<kpi name>,...
//	0,0,123.4,...
//	0,1,119.8,...
//	1,0,125.0,...
//
// Rows must cover every database for every tick, in any order. KPI columns
// are matched by Table II display name; unknown columns are rejected so
// typos fail loudly. A NaN cell is a collector gap; ±Inf cells are
// rejected.
package tracefile

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"dbcatcher/internal/kpi"
	"dbcatcher/internal/timeseries"
)

// Write serializes the unit series as CSV.
func Write(w io.Writer, u *timeseries.UnitSeries) error {
	if err := u.Validate(); err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	if u.KPIs != kpi.Count {
		return fmt.Errorf("tracefile: unit has %d KPIs, want the standard %d", u.KPIs, kpi.Count)
	}
	cw := csv.NewWriter(w)
	header := []string{"tick", "database"}
	for _, k := range kpi.All() {
		header = append(header, k.String())
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	row := make([]string, len(header))
	for t := 0; t < u.Len(); t++ {
		for d := 0; d < u.Databases; d++ {
			row[0] = strconv.Itoa(t)
			row[1] = strconv.Itoa(d)
			for k := 0; k < kpi.Count; k++ {
				row[2+k] = strconv.FormatFloat(u.Data[k][d].At(t), 'g', -1, 64)
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("tracefile: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile is Write to a file path.
func WriteFile(path string, u *timeseries.UnitSeries) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	defer f.Close()
	if err := Write(f, u); err != nil {
		return err
	}
	return f.Sync()
}

// Read parses a CSV trace into a unit series named `name`.
func Read(r io.Reader, name string) (*timeseries.UnitSeries, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("tracefile: header: %w", err)
	}
	cols, err := mapHeader(header)
	if err != nil {
		return nil, err
	}
	type cell struct {
		tick, db int
		values   []float64
	}
	var cells []cell
	maxTick, maxDB := -1, -1
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tracefile: line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("tracefile: line %d: %d fields, want %d", line, len(rec), len(header))
		}
		tick, err := strconv.Atoi(rec[0])
		if err != nil || tick < 0 {
			return nil, fmt.Errorf("tracefile: line %d: bad tick %q", line, rec[0])
		}
		db, err := strconv.Atoi(rec[1])
		if err != nil || db < 0 {
			return nil, fmt.Errorf("tracefile: line %d: bad database %q", line, rec[1])
		}
		values := make([]float64, kpi.Count)
		for col, k := range cols {
			v, err := strconv.ParseFloat(rec[col], 64)
			if err != nil {
				return nil, fmt.Errorf("tracefile: line %d: bad value %q for %s", line, rec[col], k)
			}
			// NaN is a collector gap; ±Inf has no meaning as a KPI
			// sample and would poison every correlation it touches.
			if math.IsInf(v, 0) {
				return nil, fmt.Errorf("tracefile: line %d: non-finite value %q for %s", line, rec[col], k)
			}
			values[k] = v
		}
		cells = append(cells, cell{tick: tick, db: db, values: values})
		if tick > maxTick {
			maxTick = tick
		}
		if db > maxDB {
			maxDB = db
		}
	}
	if maxTick < 0 {
		return nil, fmt.Errorf("tracefile: empty trace")
	}
	ticks, dbs := maxTick+1, maxDB+1
	if len(cells) != ticks*dbs {
		return nil, fmt.Errorf("tracefile: %d rows do not cover %d ticks x %d databases", len(cells), ticks, dbs)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].tick != cells[j].tick {
			return cells[i].tick < cells[j].tick
		}
		return cells[i].db < cells[j].db
	})
	// Detect duplicates after sorting.
	for i := 1; i < len(cells); i++ {
		if cells[i].tick == cells[i-1].tick && cells[i].db == cells[i-1].db {
			return nil, fmt.Errorf("tracefile: duplicate row for tick %d database %d", cells[i].tick, cells[i].db)
		}
	}
	u := timeseries.NewUnitSeries(name, kpi.Count, dbs)
	for _, c := range cells {
		for k := 0; k < kpi.Count; k++ {
			u.Data[k][c.db].Append(c.values[k])
		}
	}
	if err := u.Validate(); err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	return u, nil
}

// ReadFile is Read from a file path.
func ReadFile(path, name string) (*timeseries.UnitSeries, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	defer f.Close()
	return Read(f, name)
}

// mapHeader resolves KPI columns by display name.
func mapHeader(header []string) (map[int]kpi.KPI, error) {
	if len(header) < 3 || header[0] != "tick" || header[1] != "database" {
		return nil, fmt.Errorf("tracefile: header must start with tick,database")
	}
	byName := make(map[string]kpi.KPI, kpi.Count)
	for _, k := range kpi.All() {
		byName[k.String()] = k
	}
	cols := make(map[int]kpi.KPI)
	seen := make(map[kpi.KPI]bool)
	for i := 2; i < len(header); i++ {
		k, ok := byName[header[i]]
		if !ok {
			return nil, fmt.Errorf("tracefile: unknown KPI column %q", header[i])
		}
		if seen[k] {
			return nil, fmt.Errorf("tracefile: duplicate KPI column %q", header[i])
		}
		seen[k] = true
		cols[i] = k
	}
	if len(cols) != kpi.Count {
		return nil, fmt.Errorf("tracefile: %d KPI columns, want all %d Table II indicators", len(cols), kpi.Count)
	}
	return cols, nil
}
