package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"dbcatcher/internal/incident"
	"dbcatcher/internal/server"
	"dbcatcher/internal/store"
)

// An epoch boundary runs in a process of its own, started for it, as a
// restarting daemon does. There it builds spare stacks, and at the last
// boundary it also reopens the run's WAL. So neither memory nor garbage of
// that work lands in the serving process, whose peak RSS is a metric of its
// own. Both timings take milliseconds on the smaller workloads, where a
// single one is mostly noise, so both are repeated.
const (
	setupsPerBoundary = 4
	restarts          = 5 // at the last boundary
	boundaryTimeout   = 60 * time.Second
)

// boundaryReport is what a boundary process prints.
type boundaryReport struct {
	Setups   []float64 `json:"setups"`   // seconds
	Restarts []float64 `json:"restarts"` // seconds
	// Verdicts[i] is unit i's verdict count in the reopened WAL.
	Verdicts     []int  `json:"verdicts"`
	RestoreError string `json:"restore_error,omitempty"`
}

// boundaryChild runs this process as a boundary process when args, the
// command line without the program name, are "-boundary <wal dir>
// <workload> <restarts>". It reports whether it did, and the exit code.
func boundaryChild(args []string) (code int, ok bool) {
	if len(args) != 4 || args[0] != "-boundary" {
		return 0, false
	}
	w, err := findWorkload(args[2])
	var n int
	if err == nil {
		n, err = strconv.Atoi(args[3])
	}
	if err == nil {
		var rep *boundaryReport
		if rep, err = runBoundary(w, args[1], n); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench boundary:", err)
		return 1, true
	}
	return 0, true
}

// runBoundary builds spare stacks beside walDir, each from a collected heap,
// and times every build but the first, which warms the process up. Then it
// reopens walDir n times.
func runBoundary(w workload, walDir string, n int) (*boundaryReport, error) {
	rep := &boundaryReport{}
	for k := 0; k <= setupsPerBoundary; k++ {
		dir := fmt.Sprintf("%s-spare-%d", walDir, k)
		runtime.GC()
		start := time.Now()
		s, err := newSystem(w, dir, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if k > 0 {
			rep.Setups = append(rep.Setups, time.Since(start).Seconds())
		}
		if err := s.close(); err != nil {
			return nil, fmt.Errorf("set-up teardown: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	for k := 0; k < n; k++ {
		runtime.GC()
		d, counts, restoreErr, err := restart(walDir, w.units)
		if err != nil {
			return nil, err
		}
		rep.Restarts = append(rep.Restarts, d)
		rep.Verdicts = counts
		if restoreErr != nil {
			rep.RestoreError = restoreErr.Error()
		}
	}
	return rep, nil
}

// restart reopens the WAL in dir as a restarting daemon would: store.Open,
// every unit's verdict history restored into a server, and the incident
// journal replayed. It returns the time that took, in seconds, each unit's
// recovered verdict count and the journal's replay error. The run's live
// store is idle meanwhile, and reopening a log that ends in whole records
// only reads it.
func restart(dir string, units int) (seconds float64, counts []int, restoreErr, err error) {
	servers := make([]*server.Server, units)
	for i := range servers {
		servers[i] = server.New(nil, fmt.Sprintf("unit-%03d", i), fleetHistory)
	}
	agg := incident.New(incidentConfig())
	start := time.Now()
	st, rec, err := store.Open(dir, storeOptions)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("restart: %w", err)
	}
	counts = make([]int, units)
	for i, srv := range servers {
		hist := rec.UnitVerdictHistory(i)
		counts[i] = len(hist)
		srv.RestoreHistory(hist)
	}
	restoreErr = agg.Restore(rec.IncidentTransitions())
	seconds = time.Since(start).Seconds()
	if err := st.Close(); err != nil {
		return 0, nil, nil, fmt.Errorf("restart: %w", err)
	}
	return seconds, counts, restoreErr, nil
}

// boundary ends an epoch while the feeder and the readers are idle: a
// boundary process times spare builds and, at the last boundary, restarts
// of the run's WAL, which are checked against what the run has emitted.
// The heap is then collected so the next epoch starts from a clean one.
func (r *runner) boundary(res *result, last bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), boundaryTimeout)
	defer cancel()
	n := 0
	if last {
		n = restarts
	}
	cmd := exec.CommandContext(ctx, exe, "-boundary", r.sys.dir, r.w.name, strconv.Itoa(n))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("boundary: %w", err)
	}
	var b boundaryReport
	if err := json.Unmarshal(out.Bytes(), &b); err != nil {
		return fmt.Errorf("boundary: %w", err)
	}
	r.setups = append(r.setups, b.Setups...)
	runtime.GC()
	if !last {
		return nil
	}
	r.restarts = b.Restarts
	if b.RestoreError != "" {
		res.problem("incident restore: %s", b.RestoreError)
	}
	if len(b.Verdicts) != r.w.units {
		return fmt.Errorf("boundary: %d units' verdict counts for %d units", len(b.Verdicts), r.w.units)
	}
	for i, n := range b.Verdicts {
		if n != len(r.verdicts[i]) {
			res.problem("unit %d: WAL holds %d verdicts, the run emitted %d", i, n, len(r.verdicts[i]))
		}
	}
	return nil
}
