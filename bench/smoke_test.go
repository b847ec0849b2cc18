package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload, untraced and traced, at smoke scale and
// holds the output against BENCHMARK.json: every workload and metric named
// there must come out with a finite value, under the same name, unit,
// direction and bound the code uses. The JSON and the code cannot drift.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real server processes; skipped in -short mode")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default window is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the code has %d, %d and %d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the code", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the code", i, m, d)
		}
	}

	out := t.TempDir()
	ok, err := run(context.Background(), config{seed: 1, smoke: true, out: out, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a smoke run reported wrong outputs")
	}
	rf, err := readResultFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !rf.Env.Smoke || rf.Env.GoVersion == "" || rf.Env.DiskModel == "" {
		t.Errorf("result header incomplete: %+v", rf.Env)
	}
	if _, err := os.Stat(filepath.Join(out, "trace.json")); err != nil {
		t.Errorf("no trace.json: %v", err)
	}
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			var run *workloadResult
			for _, r := range rf.Runs {
				if r.Name == w.Name && r.Traced == traced {
					run = r
				}
			}
			if run == nil {
				t.Errorf("%s: no run with traced=%v in the output", w.Name, traced)
				continue
			}
			if !run.Correct || run.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d notes=%v", w.Name, traced, run.Correct, run.Failed, run.Notes)
			}
			names := make([]string, 0, len(bj.PerLayer))
			if traced {
				for _, m := range bj.PerLayer {
					names = append(names, m.Name)
				}
			} else {
				for _, m := range bj.EndToEnd {
					names = append(names, m.Name)
				}
			}
			for _, name := range names {
				m, ok := run.Metrics[name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite", w.Name, traced, name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			if len(run.Metrics) != len(names) {
				t.Errorf("%s traced=%v: %d metrics in the output, BENCHMARK.json names %d", w.Name, traced, len(run.Metrics), len(names))
			}
		}
	}

	// The comparison of a result file with itself finds nothing worse.
	worse, err := compareFiles(io.Discard, filepath.Join(out, "result.json"), filepath.Join(out, "result.json"))
	if err != nil || worse {
		t.Errorf("self-comparison: worse=%v err=%v", worse, err)
	}
}
