// Command e2ebench is the end-to-end tick-to-verdict benchmark. It builds
// the fleet stack cmd/dbcatcherd runs (per-unit judges and servers, the
// fleet scheduler, one multiplexed WAL, the incident stage, the aggregated
// HTTP API, and in scrape workloads one exporter and scraper per unit)
// from the packages' public APIs, drives it with generated inputs through
// a closed and an open loop, checks every output, and prints every metric
// by name and unit.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash e2ebench/run.sh                          # all workloads, one run each
//	bash e2ebench/run.sh --workload dashboard-32 --seed 7 --seconds 30
//	bash e2ebench/run.sh --trace 1                # per-layer metrics
//	bash e2ebench/run.sh --runs 10 -o base.json   # calibration set
//	bash e2ebench/run.sh -compare base.json new.json
//
// The parent process re-executes itself once per (workload, run), so heap,
// GC state and connections never carry over between runs. The last line
// of standard output is one JSON object: correct, attempted, failed, and
// the metrics (end-to-end ones, or per-layer ones with -trace 1) as the
// median over runs.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dbcatcher/internal/mathx"
)

type options struct {
	workload   string
	runs       int
	run        int
	seed       uint64
	seconds    float64
	scale      float64
	trace      int
	spans      string
	out        string
	cpuprofile string
}

func main() {
	if code, ok := boundaryChild(os.Args[1:]); ok {
		os.Exit(code)
	}
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	flag.IntVar(&o.runs, "runs", 1, "runs per workload; run r uses seed+r")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "run length: on the reference host the closed segments take about two thirds of it and the open ones the rest")
	flag.Float64Var(&o.scale, "scale", 1, "multiply every segment's tick count (smoke runs)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs with per-layer tracing and reports the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "traced runs: write every run's spans into this directory")
	flag.StringVar(&o.out, "o", "", "write every run's results and the per-workload summary to this JSON file")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of each run's epochs into this directory")
	compare := flag.String("compare", "", "compare two -o files: -compare base.json new.json")
	child := flag.Bool("child", false, "run one workload once in this process and print its result (the parent uses it)")
	flag.IntVar(&o.run, "run", 0, "with -child: the run index, used in output file names")
	flag.Parse()

	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "e2ebench: -compare needs two files: -compare base.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(*compare, flag.Arg(0)))
	case flag.NArg() != 0:
		fmt.Fprintf(os.Stderr, "e2ebench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(os.Stderr, "e2ebench: -trace takes 0 or 1")
		os.Exit(2)
	case o.runs < 1 || o.seconds <= 0 || o.scale <= 0:
		fmt.Fprintln(os.Stderr, "e2ebench: -runs, -seconds and -scale must be positive")
		os.Exit(2)
	case *child:
		os.Exit(childMain(o))
	}
	os.Exit(parentMain(o))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// childMain runs one workload once and prints its result as one JSON line.
func childMain(o options) int {
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	cfg := runConfig{
		w: w, seed: o.seed, seconds: o.seconds, scale: o.scale, trace: o.trace == 1,
		dir: filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	if o.cpuprofile != "" {
		cfg.cpuProfile = filepath.Join(o.cpuprofile, fmt.Sprintf("%s-run%d.pprof", w.name, o.run))
	}
	if o.spans != "" && cfg.trace {
		cfg.spansFile = filepath.Join(o.spans, fmt.Sprintf("spans-%s-run%d.json", w.name, o.run))
	}
	res, err := runOnce(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// childTimeout bounds one child run; a run takes about -seconds plus a few
// seconds of generation, set-up, recovery and checking.
func childTimeout(seconds float64) time.Duration {
	return time.Duration(150+3*seconds) * time.Second
}

// runChild re-executes this binary for one (workload, run).
func runChild(exe string, o options, w workload, run int) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(o.seconds))
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-run", strconv.Itoa(run),
		"-seed", strconv.FormatUint(o.seed+uint64(run), 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace)}
	if o.cpuprofile != "" {
		args = append(args, "-cpuprofile", o.cpuprofile)
	}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run %d: %w", w.name, run, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s run %d: reading result: %w", w.name, run, err)
	}
	return &res, nil
}

func parentMain(o options) int {
	ws := workloads
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
		ws = []workload{w}
	}
	for _, dir := range []string{o.cpuprofile, o.spans} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "e2ebench:", err)
				return 1
			}
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	specs := endToEnd
	if o.trace == 1 {
		specs = perLayer
	}
	out := outFile{Host: thisHost(), Seconds: o.seconds, Scale: o.scale, Trace: o.trace == 1,
		Summary: map[string]map[string]summaryStat{}}
	stdout := bufio.NewWriter(os.Stdout)
	defer stdout.Flush()
	final := finalLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		var runs []*result
		for r := 0; r < o.runs; r++ {
			res, err := runChild(exe, o, w, r)
			if err != nil {
				stdout.Flush()
				fmt.Fprintln(os.Stderr, "e2ebench:", err)
				return 1
			}
			printRun(stdout, res, specs)
			runs = append(runs, res)
			out.Runs = append(out.Runs, res)
			final.Correct = final.Correct && res.Correct
			final.Attempted += res.Attempted
			final.Failed += res.Failed
		}
		sum := summarize(runs)
		out.Summary[w.name] = sum
		printSummary(stdout, w.name, sum, specs)
		for _, s := range specs {
			name := s.Name
			if len(ws) > 1 {
				name = w.name + "." + s.Name
			}
			final.Metrics[name] = metric{Value: sum[s.Name].Median, Unit: s.Unit}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, out); err != nil {
			stdout.Flush()
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() hostInfo {
	return hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// outFile is the -o document, and what -compare reads.
type outFile struct {
	Host    hostInfo                          `json:"host"`
	Seconds float64                           `json:"seconds"`
	Scale   float64                           `json:"scale"`
	Trace   bool                              `json:"trace"`
	Summary map[string]map[string]summaryStat `json:"summary"`
	Runs    []*result                         `json:"runs"`
}

type summaryStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize takes each metric's median and quartiles over the runs.
func summarize(runs []*result) map[string]summaryStat {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]summaryStat{}
	for name, xs := range vals {
		q1, q3 := quartiles(xs)
		out[name] = summaryStat{Median: mathx.Median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: units[name]}
	}
	return out
}

func printRun(w *bufio.Writer, r *result, specs []metricSpec) {
	status := "ok"
	if !r.Correct {
		status = "INCORRECT: " + strings.Join(r.Problems, "; ")
	}
	fmt.Fprintf(w, "%s seed %d: %s (attempted %d, failed %d, verdicts %s)\n",
		r.Workload, r.Seed, status, r.Attempted, r.Failed, r.Digest)
	for _, s := range specs {
		m := r.Metrics[s.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", s.Name, m.Value, m.Unit)
	}
	if r.Layers != nil {
		printLayers(w, r)
	}
	w.Flush()
}

func printLayers(w *bufio.Writer, r *result) {
	l := r.Layers
	fmt.Fprintf(w, "  per-layer spans (all traced ticks and reads):\n")
	fmt.Fprintf(w, "  %-24s %9s %11s %10s %10s\n", "span", "count", "self_ms", "p50_us", "p99_us")
	for _, k := range l.Kinds {
		if k.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-24s %9d %11.2f %10.2f %10.2f\n", k.Name, k.Count, k.SelfMs, k.P50Us, k.P99Us)
	}
	fmt.Fprintf(w, "  share of %.1f ms traced closed-loop tick wall time:", l.TickWallMs)
	for _, name := range layers {
		fmt.Fprintf(w, " %s %.2f%%", name, l.Shares[name])
	}
	fmt.Fprintf(w, " (sum %.2f%%)\n", l.ShareSum)
	fmt.Fprintf(w, "  fleet.self_share %.4f  fleet.parallelism %.3f  trace.overhead_pct %.2f  spans %d (dropped %d)\n",
		l.FleetSelf, l.FleetPar, r.Metrics["trace.overhead_pct"].Value, l.Recorded, l.Dropped)
}

func printSummary(w *bufio.Writer, name string, sum map[string]summaryStat, specs []metricSpec) {
	fmt.Fprintf(w, "%s summary (median [q1, q3] over %d runs):\n", name, sum["setup_s"].N)
	keys := make([]string, 0, len(specs))
	for _, s := range specs {
		keys = append(keys, s.Name)
	}
	for _, extra := range []string{"error_rate", "detect.f_measure", "verdict_p99_ms", "verdict_samples", "read_samples"} {
		if _, ok := sum[extra]; ok && !slices.Contains(keys, extra) {
			keys = append(keys, extra)
		}
	}
	for _, k := range keys {
		s := sum[k]
		fmt.Fprintf(w, "  %-34s %14.4f [%.4f, %.4f] %s\n", k, s.Median, s.Q1, s.Q3, s.Unit)
	}
	w.Flush()
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
