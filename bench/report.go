package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds; smoke_test.go fails when the two drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
	Layer  string  // per-layer only: the module it measures
}

// endToEnd is what a dashboard user sees. fail_share is not here because it
// is 0 on a healthy system and a relative bound on 0 means nothing; failures
// are counted in every run's attempted/failed/correct instead.
var endToEnd = []metricDef{
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is what the traced run reports; times are per request unless the
// name says otherwise. A metric that does not apply to a workload (the hop on
// a single node) is reported as 0.
var perLayer = []metricDef{
	{Name: "server_self_us", Unit: "us", Better: "lower", Layer: "server"},
	{Name: "resp_bytes_per_req", Unit: "B", Better: "lower", Layer: "server"},
	{Name: "net_gap_us", Unit: "us", Better: "lower", Layer: "server"},
	{Name: "admit_wait_us", Unit: "us", Better: "lower", Layer: "exec"},
	{Name: "result_cache_hit_share", Unit: "share", Better: "higher", Layer: "exec"},
	{Name: "engine_self_us", Unit: "us", Better: "lower", Layer: "core"},
	{Name: "compile_filter_us", Unit: "us", Better: "lower", Layer: "core"},
	{Name: "build_rows_us", Unit: "us", Better: "lower", Layer: "core"},
	{Name: "plan_us", Unit: "us", Better: "lower", Layer: "plan"},
	{Name: "cubes_per_query", Unit: "count", Better: "lower", Layer: "plan"},
	{Name: "cube_hit_share", Unit: "share", Better: "higher", Layer: "cache"},
	{Name: "fetch_us_per_cube", Unit: "us", Better: "lower", Layer: "tindex"},
	{Name: "run_len", Unit: "count", Better: "higher", Layer: "tindex"},
	{Name: "pager_read_us", Unit: "us", Better: "lower", Layer: "pagestore"},
	{Name: "read_calls_per_query", Unit: "count", Better: "lower", Layer: "pagestore"},
	{Name: "pages_per_query", Unit: "count", Better: "lower", Layer: "pagestore"},
	{Name: "bytes_read_per_query", Unit: "B", Better: "lower", Layer: "pagestore"},
	{Name: "decode_us_per_page", Unit: "us", Better: "lower", Layer: "cube"},
	{Name: "agg_us_per_cube", Unit: "us", Better: "lower", Layer: "cube"},
	{Name: "fold_ms_p50", Unit: "ms", Better: "lower", Layer: "live"},
	{Name: "fold_ms_p95", Unit: "ms", Better: "lower", Layer: "live"},
	{Name: "epochs_per_s", Unit: "1/s", Better: "higher", Layer: "live"},
	{Name: "hop_overhead_us", Unit: "us", Better: "lower", Layer: "cluster"},
	{Name: "subplans_per_query", Unit: "count", Better: "lower", Layer: "cluster"},
	{Name: "hedges_fired", Unit: "count", Better: "lower", Layer: "cluster"},
	{Name: "import_updates_per_s", Unit: "1/s", Better: "higher", Layer: "build"},
	{Name: "index_bytes_per_update", Unit: "B", Better: "lower", Layer: "build"},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Layer: "build"},
	{Name: "attributed_share", Unit: "share", Better: "higher", Layer: "trace"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "trace"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerRow is one line of the traced run's breakdown: how often the layer
// ran, how long it was busy per request, and its share of the http span.
type layerRow struct {
	Layer  string  `json:"layer"`
	Count  int     `json:"count"`
	BusyUS float64 `json:"busy_us_per_req"`
	Share  float64 `json:"share_of_http"`
	How    string  `json:"how"` // "span", "stage" or "probe"
}

// workloadResult is one run of one workload, untraced or traced.
type workloadResult struct {
	Name       string                 `json:"name"`
	Why        string                 `json:"why"`
	Traced     bool                   `json:"traced"`
	ServerArgv [][]string             `json:"server_argv"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Checked    int                    `json:"oracle_checked"`
	Notes      []string               `json:"notes,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Properties map[string]any         `json:"properties"`
	Counters   map[string]float64     `json:"counters,omitempty"`
	Layers     []layerRow             `json:"layers,omitempty"`
}

// set records a metric under the unit its table gives it.
func (wr *workloadResult) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				wr.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in a table")
}

// fail records a broken gate: the run is no longer correct.
func (wr *workloadResult) fail(format string, args ...any) {
	wr.Correct = false
	wr.Notes = append(wr.Notes, fmt.Sprintf(format, args...))
}

// contractLine is the object a run prints last on stdout.
func (wr *workloadResult) contractLine() map[string]any {
	attempted := wr.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{
		"correct":   wr.Correct,
		"attempted": attempted,
		"failed":    wr.Failed,
		"metrics":   wr.Metrics,
	}
}

func (wr *workloadResult) print(w io.Writer) {
	kind := "end to end"
	defs := endToEnd
	if wr.Traced {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s (%s) ==\n", wr.Name, kind)
	fmt.Fprintf(w, "why: %s\n", wr.Why)
	for _, argv := range wr.ServerArgv {
		fmt.Fprintf(w, "server: %s\n", strings.Join(argv, " "))
	}
	fmt.Fprintf(w, "attempted=%d failed=%d oracle_checked=%d correct=%v\n", wr.Attempted, wr.Failed, wr.Checked, wr.Correct)
	for _, n := range wr.Notes {
		fmt.Fprintf(w, "NOTE: %s\n", n)
	}
	for _, d := range defs {
		m, ok := wr.Metrics[d.Name]
		if !ok {
			continue
		}
		note := fmt.Sprintf("%s is better, bound %.2f", d.Better, d.Bound)
		if d.Layer != "" {
			note = d.Layer
		}
		fmt.Fprintf(w, "  %-24s %14.4f %-6s  [%s]\n", d.Name, m.Value, m.Unit, note)
	}
	if len(wr.Layers) > 0 {
		fmt.Fprintf(w, "  %-24s %8s %14s %8s  %s\n", "layer", "count", "busy_us/req", "share", "from")
		for _, l := range wr.Layers {
			fmt.Fprintf(w, "  %-24s %8d %14.2f %8.4f  %s\n", l.Layer, l.Count, l.BusyUS, l.Share, l.How)
		}
	}
	printMap(w, "properties", wr.Properties)
	printMap(w, "counters", wr.Counters)
}

func printMap[V any](w io.Writer, title string, m map[string]V) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "  %s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(w, "    %-34s %v\n", k, m[k])
	}
}

// env is the header every result file starts with.
type env struct {
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	DiskModel  string `json:"disk_model"`
	Flush      string `json:"flush_policy"`
	Load       string `json:"load_model"`
	Seed       int64  `json:"seed"`
	Smoke      bool   `json:"smoke"`
}

func envBlock(seed int64, smoke bool) env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		Kernel:     "unknown",
		DiskModel:  "os page cache, no injected latency",
		Flush:      "the server's own: fsync at build end, at live day close and every 16 folds",
		Load:       fmt.Sprintf("closed loop, %d clients, one keep-alive connection each", runtime.NumCPU()),
		Seed:       seed,
		Smoke:      smoke,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func printEnv(w io.Writer, e env) {
	raw, _ := json.Marshal(e) // plain struct of strings and ints: cannot fail
	fmt.Fprintf(w, "env: %s\n", raw)
}

// resultFile is what -out receives and -compare reads.
type resultFile struct {
	Env  env               `json:"env"`
	Runs []*workloadResult `json:"runs"`
}

func (rf *resultFile) add(wr *workloadResult) { rf.Runs = append(rf.Runs, wr) }

// write stores result.json and trace.json under dir; an empty dir writes
// nothing, so the bench never touches the repository tree unasked.
func (rf *resultFile) write(dir string, spans []span) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(dir, "result.json"), rf); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	return writeJSONFile(filepath.Join(dir, "trace.json"), struct {
		Env   env    `json:"env"`
		Spans []span `json:"spans"`
	}{rf.Env, spans})
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
