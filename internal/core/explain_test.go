package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rased/internal/cache"
	"rased/internal/cube"
	"rased/internal/osm"
	"rased/internal/temporal"
	"rased/internal/tindex"
	"rased/internal/update"
)

func TestExplanationPrintEmpty(t *testing.T) {
	var buf bytes.Buffer
	(&Explanation{Empty: true}).Print(&buf)
	if !strings.Contains(buf.String(), "plan: empty") {
		t.Errorf("empty explanation printed %q", buf.String())
	}
}

func TestExplanationPrint(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, f, Options{CacheSlots: 0, LevelOptimization: false})
	ex, err := e.Explain(Query{From: f.lo, To: f.lo + 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ex.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "plan: window "+f.lo.String()) {
		t.Errorf("missing window header in %q", out)
	}
	// Ten flat daily cubes summarize into one ×10 disk run.
	if !strings.Contains(out, "×10 (disk)") {
		t.Errorf("missing run summary in %q", out)
	}

	// A date-grouped window prints one bucket section per period.
	ex, err = e.Explain(Query{From: f.lo, To: f.lo + 13, GroupBy: GroupBy{Date: ByWeek}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	ex.Print(&buf)
	if !strings.Contains(buf.String(), "bucket ") {
		t.Errorf("missing bucket sections in %q", buf.String())
	}
}

func TestExplanationPrintCacheMark(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, f, Options{CacheSlots: 256, Allocation: cache.DefaultAllocation, LevelOptimization: true})
	ex, err := e.Explain(Query{From: f.hi - 6, To: f.hi})
	if err != nil {
		t.Fatal(err)
	}
	if ex.DiskReads == ex.Fetches {
		t.Skip("nothing cached for this window")
	}
	var buf bytes.Buffer
	ex.Print(&buf)
	if !strings.Contains(buf.String(), "(cache)") {
		t.Errorf("cached periods not marked in %q", buf.String())
	}
}

func TestTraceFields(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, f, Options{CacheSlots: 256, Allocation: cache.DefaultAllocation, LevelOptimization: true})

	res, err := e.Analyze(Query{From: f.lo, To: f.hi})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced query carries a trace")
	}

	res, err = e.Analyze(Query{From: f.lo, To: f.hi, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("traced query returned no trace")
	}
	if tr.CubesFetched != res.Stats.CubesFetched || tr.CacheHits != res.Stats.CacheHits ||
		tr.DiskReads != res.Stats.DiskReads {
		t.Errorf("trace totals %+v disagree with stats %+v", tr, res.Stats)
	}
	if tr.CubesFetched == 0 {
		t.Error("trace counted no cubes")
	}
	// The executed plan's level mix and bucket detail account for every fetch.
	sum := 0
	for _, n := range tr.PlanLevels {
		sum += n
	}
	if sum != tr.CubesFetched {
		t.Errorf("level mix sums to %d, want %d", sum, tr.CubesFetched)
	}
	periods := 0
	for _, b := range tr.Buckets {
		periods += len(b.Periods)
	}
	if periods != tr.CubesFetched {
		t.Errorf("bucket periods sum to %d, want %d", periods, tr.CubesFetched)
	}
	// The 70-day fixture window must engage more than one index level.
	if len(tr.PlanLevels) < 2 {
		t.Errorf("level optimizer used only %v over a 70-day window", tr.PlanLevels)
	}
	var names []string
	for _, s := range tr.Stages {
		if s.Nanos < 0 {
			t.Errorf("stage %s has negative duration", s.Name)
		}
		names = append(names, s.Name)
	}
	for _, want := range []string{"compile_filter", "plan", "aggregate", "build_rows"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("stage %q missing from %v", want, names)
		}
	}
	if tr.TotalNanos <= 0 {
		t.Error("trace has no total duration")
	}

	// Every query shape reports the same four disjoint, sequential stages:
	// a date-grouped query plans all its buckets before it aggregates any,
	// so its plan stage is not hidden inside aggregate, and the stages can
	// never add up to more than the query took.
	res, err = e.Analyze(Query{From: f.lo, To: f.hi, GroupBy: GroupBy{Date: ByWeek}, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var stageSum int64
	seen := map[string]int64{}
	for _, s := range res.Trace.Stages {
		stageSum += s.Nanos
		seen[s.Name] += s.Nanos
	}
	if len(res.Trace.Stages) != 4 || len(seen) != 4 {
		t.Errorf("week-grouped query stages = %v, want the four stages once each", res.Trace.Stages)
	}
	if seen["plan"] <= 0 {
		t.Errorf("week-grouped query reports plan = %d ns, want > 0", seen["plan"])
	}
	if stageSum > res.Trace.TotalNanos {
		t.Errorf("stages sum to %d ns, more than the query's %d ns: stages overlap", stageSum, res.Trace.TotalNanos)
	}

	var buf bytes.Buffer
	tr.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "trace: ") || !strings.Contains(out, "stage compile_filter") {
		t.Errorf("trace print missing sections: %q", out)
	}
}

// TestTraceWarmVsCold is the observable cache effect, end to end: a query over
// freshly appended (uncached) days reads pages from disk; after RefreshCache
// the identical query is served entirely from memory.
func TestTraceWarmVsCold(t *testing.T) {
	dir := t.TempDir()
	schema := cube.ScaledSchema(10, 5)
	ix, err := tindex.Create(dir, schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ing := NewIngestor(ix)
	day := temporal.NewDay(2021, time.March, 1)
	rec := update.Record{ElementType: osm.Way, Day: day, Country: 1, RoadType: 1, UpdateType: update.Create}
	if err := ing.AppendDay(day, []update.Record{rec}); err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(ix, Options{CacheSlots: 64, Allocation: cache.Allocation{Alpha: 1}, LevelOptimization: true})
	if err != nil {
		t.Fatal(err)
	}

	// Days appended after preload are not cached: the traced query hits disk.
	for i := 1; i <= 5; i++ {
		r := rec
		r.Day = day + temporal.Day(i)
		if err := ing.AppendDay(r.Day, []update.Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{From: day, To: day + 5, Trace: true}
	cold, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Trace.PageReads == 0 || cold.Trace.DiskReads == 0 {
		t.Fatalf("cold query should read from disk: %+v", cold.Trace)
	}

	if err := e.RefreshCache(); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Trace.PageReads != 0 {
		t.Errorf("warm query read %d pages, want 0", warm.Trace.PageReads)
	}
	if warm.Trace.PageReads >= cold.Trace.PageReads {
		t.Errorf("warm reads %d not below cold reads %d", warm.Trace.PageReads, cold.Trace.PageReads)
	}
	if warm.Trace.CacheHits != warm.Trace.CubesFetched {
		t.Errorf("warm query not fully cached: %+v", warm.Trace)
	}
	if warm.Total != cold.Total {
		t.Errorf("warm total %d != cold total %d", warm.Total, cold.Total)
	}
}

func TestEngineMetricsCount(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, f, DefaultOptions())
	m := e.Metrics()
	q0, lat0 := m.Queries.Value(), m.QueryLatency.Count()
	for i := 0; i < 3; i++ {
		if _, err := e.Analyze(Query{From: f.lo, To: f.hi}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Queries.Value() - q0; got != 3 {
		t.Errorf("queries counter advanced by %d, want 3", got)
	}
	if got := m.QueryLatency.Count() - lat0; got != 3 {
		t.Errorf("latency histogram counted %d, want 3", got)
	}
	errs0 := m.QueryErrors.Value()
	if _, err := e.Analyze(Query{From: f.hi, To: f.lo}); err == nil {
		t.Fatal("inverted window should fail")
	}
	if got := m.QueryErrors.Value() - errs0; got != 1 {
		t.Errorf("error counter advanced by %d, want 1", got)
	}
}
