package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/server"
	"rased/internal/temporal"
)

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.want > 0 && beyond(tc.n, tc.want) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond(tc.n, tc.want), tc.want*100)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.50: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two reads overlap on [20,30); one runs past the parent's end; one lies
	// outside it. Covered: [10,50) + [70,80) + [90,100) = 60.
	children := []interval{{20, 50}, {10, 30}, {70, 80}, {90, 120}, {150, 160}}
	if got := covered(0, 100, children); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
	if got := selfTime(0, 100, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP rased_queries_total Queries.
# TYPE rased_queries_total counter
rased_queries_total 10
rased_pagestore_reads_total{store="cubes.db"} 436
rased_pagestore_reads_total{store="warehouse.db"} 301
rased_query_latency_seconds_sum 0.005875671000000001
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`rased_queries_total 110
rased_pagestore_reads_total{store="cubes.db"} 1436
rased_pagestore_reads_total{store="warehouse.db"} 301
rased_query_latency_seconds_sum 0.105875671
rased_http_requests_total{code="200",method="POST",route="/api/analysis"} 100
rased_note{text="a b c"} 7
`))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if got := d.sum("rased_queries_total"); got != 100 {
		t.Errorf("queries delta = %v, want 100", got)
	}
	if got := d.sum("rased_pagestore_reads_total", `store="cubes`); got != 1000 {
		t.Errorf("cube page reads delta = %v, want 1000", got)
	}
	if got := d.sum("rased_pagestore_reads_total"); got != 1000 {
		t.Errorf("all page reads delta = %v, want 1000", got)
	}
	// A counter created during the window counts from 0.
	if got := d.sum("rased_http_requests_total", `code="200"`); got != 100 {
		t.Errorf("lazily created counter delta = %v, want 100", got)
	}
	if got := d.sum("rased_note"); got != 7 {
		t.Errorf("label value with spaces: %v, want 7", got)
	}
	if got := d.sum("rased_query_latency_seconds_sum"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("latency sum delta = %v, want 0.1", got)
	}
	if got := d.sum("rased_absent_total"); got != 0 {
		t.Errorf("absent metric = %v, want 0", got)
	}
	if _, err := parseProm(strings.NewReader("rased_queries_total ten\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

// fakeDeployment is enough for trace generation, which never opens the directory.
func fakeDeployment(days int) *deployment {
	return &deployment{
		schema: cube.ScaledSchema(schemaCountries, schemaRoadTypes),
		lo:     coverageEnd - temporal.Day(days-1), hi: coverageEnd,
	}
}

func TestSameSeedSameTrace(t *testing.T) {
	d := fakeDeployment(fullScale.days)
	for _, w := range workloads {
		a, err := w.gen(7, d, 3000)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.gen(7, d, 3000)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := w.gen(8, d, 3000)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(a) < 3000 {
			t.Errorf("%s: %d requests, want at least 3000", w.name, len(a))
		}
		if traceSHA(a) != traceSHA(b) {
			t.Errorf("%s: same seed, different trace_sha256", w.name)
		}
		if traceSHA(a[:2000]) == traceSHA(c[:2000]) {
			t.Errorf("%s: seeds 7 and 8 give the same trace", w.name)
		}
	}
}

func TestExportScanHardlyRepeats(t *testing.T) {
	w, _ := workloadByName("export.scan")
	reqs, err := w.gen(1, fakeDeployment(fullScale.days), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if rs := repeatShare(reqs); rs > 0.05 {
		t.Errorf("export.scan repeat share %.3f, want <= 0.05", rs)
	}
}

func TestOracleAnswer(t *testing.T) {
	o := newOracle(cube.ScaledSchema(schemaCountries, schemaRoadTypes))
	day := func(dom int) temporal.Day { return temporal.NewDay(2021, time.March, dom) }
	// (element, country, road, update)
	o.recs = []orec{
		{day(1), [4]uint16{0, 0, 0, 0}},
		{day(8), [4]uint16{1, 0, 0, 0}},
		{day(8), [4]uint16{1, 1, 0, 0}},
		{day(29), [4]uint16{1, 1, 2, 1}}, // days 29-31 report under week 4
		{day(31), [4]uint16{1, 1, 2, 1}},
	}
	rows, total, err := o.answer(&server.AnalysisRequest{
		From: "2021-03-02", To: "2021-03-31", GroupBy: []string{"country"}, Granularity: "week",
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Errorf("total = %d, want 4", total)
	}
	c := o.names[dimCountry]
	want := []struct {
		period, country string
		count           uint64
	}{{"2021-03/w2", c[0], 1}, {"2021-03/w2", c[1], 1}, {"2021-03/w4", c[1], 2}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v, want %d rows", rows, len(want))
	}
	for i, w := range want {
		if rows[i].Period != w.period || rows[i].Country != w.country || rows[i].Count != w.count {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
	// A filter on a dimension that is not grouped.
	_, total, err = o.answer(&server.AnalysisRequest{From: "2021-03-01", To: "2021-03-31", ElementTypes: []string{o.names[dimElement][0]}})
	if err != nil || total != 1 {
		t.Errorf("filtered total = %d, %v, want 1", total, err)
	}
	if err := o.check(&server.AnalysisRequest{From: "2021-03-01", To: "2021-03-31"}, []byte(`{"rows":[{"count":5}],"total":5,"stats":{}}`)); err != nil {
		t.Errorf("correct body rejected: %v", err)
	}
	if err := o.check(&server.AnalysisRequest{From: "2021-03-01", To: "2021-03-31"}, []byte(`{"rows":[{"count":4}],"total":4,"stats":{}}`)); err == nil {
		t.Error("wrong total accepted")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{1.0}, []float64{1.09}, verdictOK},
		{lower, []float64{1.0}, []float64{1.11}, verdictWorse},
		{lower, []float64{1.0}, []float64{0.5}, verdictOK},
		{higher, []float64{1000}, []float64{905}, verdictOK},
		{higher, []float64{1000}, []float64{890}, verdictWorse},
		{lower, []float64{1.0}, nil, verdictUnresolved},
		// Spread of a's own runs wider than the bound: cannot tell.
		{lower, []float64{1.0, 1.5, 2.0, 2.5}, []float64{3.0}, verdictUnresolved},
		{lower, []float64{1.0, 1.01, 1.02, 1.03}, []float64{1.2, 1.21, 1.22, 1.2}, verdictWorse},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestParsePeriodRoundTrip(t *testing.T) {
	d := temporal.NewDay(2021, time.March, 17)
	week, _ := temporal.WeekPeriod(d)
	for _, p := range []temporal.Period{temporal.DayPeriod(d), week, temporal.MonthPeriod(d), temporal.YearPeriod(d)} {
		got, err := parsePeriod(p.Level.String(), p.String())
		if err != nil || got != p {
			t.Errorf("parsePeriod(%s, %s) = %v, %v, want %v", p.Level, p, got, err, p)
		}
	}
}

func TestStatsTail(t *testing.T) {
	body := []byte(`{"rows":[{"country":"stats","count":3}],"total":3,"stats":{"cubes_fetched":7,"disk_reads":2,"cache_hits":5,"elapsed_nanos":597000}}` + "\n")
	st, ok := statsTail(body)
	if !ok || st.CubesFetched != 7 || st.DiskReads != 2 || st.CacheHits != 5 {
		t.Errorf("statsTail = %+v, %v", st, ok)
	}
	if _, ok := statsTail([]byte(`{"error":"bad"}`)); ok {
		t.Error("statsTail found stats in an error body")
	}
}
