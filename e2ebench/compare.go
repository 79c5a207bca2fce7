package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"dbcatcher/internal/mathx"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readBenchSpec finds BENCHMARK.json at the repository root, from the root
// or from this package's directory.
func readBenchSpec() (*benchSpec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

func readOutFile(path string) (*outFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runCompare judges every (workload, end-to-end metric) of new against base
// by the benchmark's rule:
//
//   - worse: the median moved the wrong way by more than the metric's bound;
//   - unresolved: base's quartile spread exceeds the bound, unless every run
//     of new reads better than every run of base;
//   - better: new wins at least nine tenths of the runs paired by index, and
//     the medians differ by more than base's quartile distance;
//   - same: otherwise.
//
// It exits 1 if any metric is worse, the error rate rose, or the F-measure
// moved at all.
func runCompare(basePath, newPath string) int {
	spec, err := readBenchSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: reading BENCHMARK.json:", err)
		return 2
	}
	base, err := readOutFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	cur, err := readOutFile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if base.Seconds != cur.Seconds || base.Scale != cur.Scale {
		fmt.Fprintf(os.Stderr, "e2ebench: the two sets ran different lengths (%gs x%g vs %gs x%g)\n",
			base.Seconds, base.Scale, cur.Seconds, cur.Scale)
		return 2
	}
	bw, cw := byWorkload(base.Runs), byWorkload(cur.Runs)
	names := make([]string, 0, len(bw))
	for name := range bw {
		if _, ok := cw[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: the two files share no workload")
		return 2
	}
	fmt.Printf("base %s: %d cpu; new %s: %d cpu\n", basePath, base.Host.NumCPU, newPath, cur.Host.NumCPU)
	failed := false
	for _, name := range names {
		b, c := bw[name], cw[name]
		fmt.Printf("%s (%d base runs, %d new runs)\n", name, len(b), len(c))
		fmt.Printf("  %-20s %24s %24s %7s  %s\n", "metric", "base median [q1,q3]", "new median [q1,q3]", "change", "verdict")
		for _, m := range spec.EndToEnd {
			bv, cv := values(b, m.Name), values(c, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				fmt.Printf("  %-20s missing\n", m.Name)
				failed = true
				continue
			}
			verdict, change := judge(bv, cv, m.Better == "higher", m.Bound)
			if verdict == "worse" {
				failed = true
			}
			fmt.Printf("  %-20s %24s %24s %+6.1f%%  %s\n", m.Name, describe(bv), describe(cv), 100*change, verdict)
		}
		be, ce := errorRate(b), errorRate(c)
		verdict := "same"
		if ce > be {
			verdict, failed = "worse", true
		}
		fmt.Printf("  %-20s %24.6f %24.6f %7s  %s\n", "error_rate", be, ce, "", verdict)
		bf, cf := mathx.Median(values(b, "detect.f_measure")), mathx.Median(values(c, "detect.f_measure"))
		verdict = "same"
		if bf != cf {
			verdict, failed = "moved", true
		}
		fmt.Printf("  %-20s %24.6f %24.6f %7s  %s\n", "f_measure", bf, cf, "", verdict)
	}
	if failed {
		return 1
	}
	return 0
}

// judge applies the rule above; change is the relative median change,
// positive when new is better.
func judge(base, cur []float64, higher bool, bound float64) (verdict string, change float64) {
	sign := 1.0
	if !higher {
		sign = -1
	}
	mb, mc := mathx.Median(base), mathx.Median(cur)
	q1, q3 := quartiles(base)
	if mb != 0 {
		change = sign * (mc - mb) / math.Abs(mb)
	}
	better := func(c, b float64) bool { return sign*(c-b) > 0 }
	allBetter := true
	for _, c := range cur {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	wins, pairs := 0, len(base)
	if len(cur) < pairs {
		pairs = len(cur)
	}
	for i := 0; i < pairs; i++ {
		if better(cur[i], base[i]) {
			wins++
		}
	}
	gain := float64(wins) >= 0.9*float64(pairs) && math.Abs(mc-mb) > q3-q1
	switch {
	case mb != 0 && (q3-q1)/math.Abs(mb) > bound && !allBetter:
		return "unresolved", change
	case -change > bound:
		return "worse", change
	case gain:
		return "better", change
	}
	return "same", change
}

func byWorkload(runs []*result) map[string][]*result {
	out := map[string][]*result{}
	for _, r := range runs {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}

func values(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func errorRate(runs []*result) float64 {
	var a, f int64
	for _, r := range runs {
		a += r.Attempted
		f += r.Failed
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g,%.4g]", mathx.Median(xs), q1, q3)
}
