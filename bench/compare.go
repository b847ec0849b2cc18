package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (end-to-end metric × workload) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // b's median is worse than a's by more than the bound
	verdictUnresolved = "unresolved" // missing, incorrect, or run-to-run spread wider than the bound
)

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values collects one end-to-end metric of one workload over a file's correct
// untraced runs; a file may hold several runs of a workload.
func (rf *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range rf.Runs {
		if run.Name != workload || run.Traced || !run.Correct {
			continue
		}
		if m, ok := run.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the interquartile range as a share of the median; 0 when there
// are too few values to have one.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// judge compares side b with its base a for one metric.
func judge(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 || spread(a) > d.Bound || spread(b) > d.Bound {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	if d.Better == "lower" && mb > ma*(1+d.Bound) || d.Better == "higher" && mb < ma*(1-d.Bound) {
		return verdictWorse
	}
	return verdictOK
}

// compareFiles prints one row per end-to-end metric and workload: both
// medians, b as a ratio of its base a, the bound, and the verdict. It
// reports whether any pair is worse.
func compareFiles(w io.Writer, aPath, bPath string) (worse bool, err error) {
	a, err := readResultFile(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (commit %s, seed %d, smoke %v)\n", aPath, a.Env.Commit, a.Env.Seed, a.Env.Smoke)
	fmt.Fprintf(w, "b = %s (commit %s, seed %d, smoke %v)\n", bPath, b.Env.Commit, b.Env.Seed, b.Env.Smoke)
	fmt.Fprintf(w, "%-16s %-9s %12s %12s %16s %6s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			av, bv := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			v := judge(d, av, bv)
			worse = worse || v == verdictWorse
			ratio := "-"
			if len(av) > 0 && len(bv) > 0 && median(av) != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", median(bv)/median(av), median(av))
			}
			fmt.Fprintf(w, "%-16s %-9s %12.4f %12.4f %16s %6.2f  %s\n", wl.name, d.Name, median(av), median(bv), ratio, d.Bound, v)
		}
	}
	return worse, nil
}
