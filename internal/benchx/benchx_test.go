package benchx

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rased/internal/cube"
)

var (
	wsOnce sync.Once
	ws     *Workspace
	wsErr  error
)

// testWorkspace is a 3-year deployment shared by the shape tests.
func testWorkspace(t *testing.T) *Workspace {
	t.Helper()
	wsOnce.Do(func() {
		ws, wsErr = NewWorkspace(WorkspaceConfig{
			Years:           3,
			UpdatesPerDay:   80,
			Seed:            2,
			Countries:       30,
			RoadTypes:       8,
			ReadLatency:     100 * time.Microsecond,
			WithDBMS:        true,
			DBMSBufferBytes: 1 << 20,
		})
	})
	if wsErr != nil {
		t.Fatal(wsErr)
	}
	return ws
}

func TestMain(m *testing.M) {
	code := m.Run()
	if ws != nil {
		ws.Close()
	}
	os.Exit(code)
}

func TestWorkspaceShape(t *testing.T) {
	w := testWorkspace(t)
	if w.Records == 0 {
		t.Fatal("no records")
	}
	counts := w.Index.NumCubes()
	wantDays := int(w.Hi-w.Lo) + 1
	if counts[0] != wantDays {
		t.Errorf("daily cubes = %d, want %d", counts[0], wantDays)
	}
	if w.Table.Count() != w.Records {
		t.Errorf("dbms table = %d records, want %d", w.Table.Count(), w.Records)
	}
	if _, err := NewWorkspace(WorkspaceConfig{Years: 0}); err == nil {
		t.Error("years 0 should fail")
	}
	if _, err := NewWorkspace(WorkspaceConfig{Years: 1, UpdatesPerDay: 0}); err == nil {
		t.Error("0 updates per day should fail")
	}
	// A point needs at least one query to average over.
	for name, run := range map[string]func() error{
		"Fig7":  func() error { _, err := Fig7(w, []int{8}, []int{1}, 0, 1); return err },
		"Fig9":  func() error { _, err := Fig9(w, []int{1}, 0, 1); return err },
		"Fig10": func() error { _, err := Fig10(w, []int{1}, 0, 1); return err },
		"AblationAllocation": func() error {
			_, err := AblationAllocation(w, StandardAllocations(), 8, []int{1}, 0, 1)
			return err
		},
		"AblationEviction": func() error { _, err := AblationEviction(w, 8, []int{1}, 0, 1); return err },
	} {
		if run() == nil {
			t.Errorf("%s with 0 queries should fail", name)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	w := testWorkspace(t)
	sizes := []int{8, 32, 128, 512}
	spans := []int{1, 6}
	points, err := Fig7(w, sizes, spans, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(sizes)*len(spans) {
		t.Fatalf("points = %d", len(points))
	}
	// Disk reads must be non-increasing in cache size for every span, and
	// drop substantially from the smallest to the largest cache.
	for _, span := range spans {
		var series []float64
		for _, size := range sizes {
			for _, p := range points {
				if p.SpanMonths == span && p.CacheCubes == size {
					series = append(series, p.AvgDisk)
				}
			}
		}
		for i := 1; i < len(series); i++ {
			if series[i] > series[i-1]+0.5 {
				t.Errorf("span %d: disk reads increase with cache size: %v", span, series)
			}
		}
		if series[len(series)-1] > series[0] {
			t.Errorf("span %d: largest cache no better than smallest: %v", span, series)
		}
	}
	// Longer spans cost at least as much disk at the smallest cache.
	small := map[int]float64{}
	for _, p := range points {
		if p.CacheCubes == sizes[0] {
			small[p.SpanMonths] = p.AvgDisk
		}
	}
	if small[6] < small[1] {
		t.Errorf("6-month queries should need at least as many reads as 1-month: %v", small)
	}

	// Every sweep cell carries obs evidence covering all its queries, and
	// the cached runs report a hit rate.
	for _, p := range points {
		if p.Ev.Queries != 30 {
			t.Errorf("cell %d×%dmo evidence counted %d queries, want 30", p.CacheCubes, p.SpanMonths, p.Ev.Queries)
		}
		if p.Ev.HitRate < 0 {
			t.Errorf("cached cell %d×%dmo has no hit rate", p.CacheCubes, p.SpanMonths)
		}
		if p.Ev.P99 < p.Ev.P50 {
			t.Errorf("cell %d×%dmo: p99 %v below p50 %v", p.CacheCubes, p.SpanMonths, p.Ev.P99, p.Ev.P50)
		}
	}

	var buf bytes.Buffer
	PrintFig7(&buf, points)
	if buf.Len() == 0 {
		t.Error("empty fig7 output")
	}
	if !strings.Contains(buf.String(), "obs evidence") {
		t.Error("fig7 output missing evidence table")
	}
}

func TestFig8Shape(t *testing.T) {
	points := Fig8(cube.ScaledSchema(30, 8), 16)
	if len(points) != 16*4 {
		t.Fatalf("points = %d", len(points))
	}
	// Storage grows with years and with levels; the 4-level overhead over
	// flat stays close to the paper's 1.15.
	last := map[int]int64{}
	for _, p := range points {
		if p.Bytes <= last[p.Levels] {
			t.Errorf("storage not increasing: %+v", p)
		}
		last[p.Levels] = p.Bytes
	}
	var flat16, full16 int64
	for _, p := range points {
		if p.Years == 16 && p.Levels == 1 {
			flat16 = p.Bytes
		}
		if p.Years == 16 && p.Levels == 4 {
			full16 = p.Bytes
		}
	}
	ratio := float64(full16) / float64(flat16)
	if ratio < 1.10 || ratio > 1.25 {
		t.Errorf("4-level/flat ratio = %.3f, paper reports ~1.15", ratio)
	}

	var buf bytes.Buffer
	PrintFig8(&buf, points)
	if buf.Len() == 0 {
		t.Error("empty fig8 output")
	}
}

func TestFig9Shape(t *testing.T) {
	w := testWorkspace(t)
	windows := []int{1, 3}
	points, err := Fig9(w, windows, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	get := func(years int, variant string) Fig9Point {
		for _, p := range points {
			if p.WindowYears == years && p.Variant == variant {
				return p
			}
		}
		t.Fatalf("missing point %d %s", years, variant)
		return Fig9Point{}
	}
	for _, y := range windows {
		f, o, r := get(y, VariantFlat), get(y, VariantOpt), get(y, VariantFull)
		// The flat variant reads ~365*y cubes; the optimizer a handful.
		if f.AvgCubes < float64(y*300) {
			t.Errorf("%dy flat reads %f cubes, want ~%d", y, f.AvgCubes, y*365)
		}
		if o.AvgCubes > 40 {
			t.Errorf("%dy optimizer reads %f cubes, want few", y, o.AvgCubes)
		}
		// Hierarchy + optimizer beats flat by a wide margin; cache removes
		// the remaining disk reads on recent-heavy windows.
		if f.AvgLatency < o.AvgLatency*10 {
			t.Errorf("%dy: flat %v not >> optimized %v", y, f.AvgLatency, o.AvgLatency)
		}
		if r.AvgDisk > o.AvgDisk {
			t.Errorf("%dy: cache increased disk reads: %f > %f", y, r.AvgDisk, o.AvgDisk)
		}
	}
	// Flat latency grows with the window; the full system stays flat-ish.
	if get(3, VariantFlat).AvgLatency < get(1, VariantFlat).AvgLatency {
		t.Error("flat latency should grow with the window")
	}
	// Evidence: only the cached variant reports a hit rate, and its page
	// reads per query stay below the uncached optimizer's.
	for _, y := range windows {
		f, o, r := get(y, VariantFlat), get(y, VariantOpt), get(y, VariantFull)
		if f.Ev.HitRate >= 0 || o.Ev.HitRate >= 0 {
			t.Errorf("%dy: cacheless variants report hit rates %f %f", y, f.Ev.HitRate, o.Ev.HitRate)
		}
		if r.Ev.HitRate < 0 {
			t.Errorf("%dy: cached variant has no hit rate", y)
		}
		if r.Ev.PagesPerQuery > o.Ev.PagesPerQuery {
			t.Errorf("%dy: cache raised pages/query: %f > %f", y, r.Ev.PagesPerQuery, o.Ev.PagesPerQuery)
		}
	}

	var buf bytes.Buffer
	PrintFig9(&buf, points)
	if buf.Len() == 0 {
		t.Error("empty fig9 output")
	}
	if !strings.Contains(buf.String(), "obs evidence") {
		t.Error("fig9 output missing evidence table")
	}
}

func TestFig10Shape(t *testing.T) {
	w := testWorkspace(t)
	windows := []int{1, 3}
	points, err := Fig10(w, windows, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	get := func(years int, engine string) Fig10Point {
		for _, p := range points {
			if p.WindowYears == years && p.Engine == engine {
				return p
			}
		}
		t.Fatalf("missing point %d %s", years, engine)
		return Fig10Point{}
	}
	for _, y := range windows {
		r, d := get(y, "RASED"), get(y, "DBMS")
		if d.AvgLatency < r.AvgLatency*20 {
			t.Errorf("%dy: DBMS %v not orders slower than RASED %v", y, d.AvgLatency, r.AvgLatency)
		}
	}
	// The DBMS cost is flat in the window (full scan either way).
	d1, d3 := get(1, "DBMS"), get(3, "DBMS")
	ratio := float64(d3.AvgLatency) / float64(d1.AvgLatency)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("DBMS latency should be window-independent: 1y=%v 3y=%v", d1.AvgLatency, d3.AvgLatency)
	}
	if d1.AvgDisk != d3.AvgDisk {
		t.Errorf("DBMS disk reads differ across windows: %f vs %f", d1.AvgDisk, d3.AvgDisk)
	}

	// The clustered extension baseline: scan scales with the window (so the
	// 1-year scan beats the full scan) but still loses to RASED.
	c1, c3 := get(1, "DBMS-clustered"), get(3, "DBMS-clustered")
	if c1.AvgDisk >= d1.AvgDisk {
		t.Errorf("clustered 1y scan (%f reads) should beat full scan (%f)", c1.AvgDisk, d1.AvgDisk)
	}
	if c3.AvgDisk <= c1.AvgDisk {
		t.Errorf("clustered scan should grow with window: 1y=%f 3y=%f", c1.AvgDisk, c3.AvgDisk)
	}
	if c1.AvgLatency < get(1, "RASED").AvgLatency {
		t.Errorf("clustered baseline should not beat RASED: %v vs %v",
			c1.AvgLatency, get(1, "RASED").AvgLatency)
	}

	// Evidence rows exist for the RASED runs; the DBMS engines are outside
	// the obs registry and print as no rows rather than zeros.
	for _, y := range windows {
		if get(y, "RASED").Ev.Queries != 2 {
			t.Errorf("%dy: RASED evidence counted %d queries, want 2", y, get(y, "RASED").Ev.Queries)
		}
		if get(y, "DBMS").Ev.Queries != 0 {
			t.Errorf("%dy: DBMS row unexpectedly carries evidence", y)
		}
	}

	var buf bytes.Buffer
	PrintFig10(&buf, points)
	if buf.Len() == 0 {
		t.Error("empty fig10 output")
	}
	if !strings.Contains(buf.String(), "obs evidence") {
		t.Error("fig10 output missing evidence table")
	}
}

func TestAblationAllocationShape(t *testing.T) {
	w := testWorkspace(t)
	points, err := AblationAllocation(w, StandardAllocations(), 64, []int{1, 12}, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string, span int) AllocationPoint {
		for _, p := range points {
			if p.Name == name && p.SpanMonths == span {
				return p
			}
		}
		t.Fatalf("missing point %s/%d", name, span)
		return AllocationPoint{}
	}
	// The paper's trade-off: all-daily wins short recent windows,
	// coarse-heavy wins long windows.
	daily1, coarse1 := get("all-daily (α=1)", 1), get("coarse-heavy", 1)
	daily12, coarse12 := get("all-daily (α=1)", 12), get("coarse-heavy", 12)
	if daily1.AvgDisk > coarse1.AvgDisk {
		t.Errorf("1-month: all-daily (%.2f reads) should beat coarse-heavy (%.2f)",
			daily1.AvgDisk, coarse1.AvgDisk)
	}
	if coarse12.AvgDisk > daily12.AvgDisk {
		t.Errorf("12-month: coarse-heavy (%.2f reads) should beat all-daily (%.2f)",
			coarse12.AvgDisk, daily12.AvgDisk)
	}

	var buf bytes.Buffer
	PrintAblationAllocation(&buf, points)
	if buf.Len() == 0 {
		t.Error("empty ablation output")
	}
}

func TestAblationEvictionShape(t *testing.T) {
	w := testWorkspace(t)
	points, err := AblationEviction(w, 64, []int{1, 6}, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	get := func(policy string, span int) EvictionPoint {
		for _, p := range points {
			if p.Policy == policy && p.SpanMonths == span {
				return p
			}
		}
		t.Fatalf("missing point %s/%d", policy, span)
		return EvictionPoint{}
	}
	for _, span := range []int{1, 6} {
		none := get("none", span)
		pre := get("preload", span)
		demand := get("demand", span)
		if pre.AvgDisk >= none.AvgDisk {
			t.Errorf("span %d: preload (%.2f) should beat no cache (%.2f)", span, pre.AvgDisk, none.AvgDisk)
		}
		if demand.AvgDisk >= none.AvgDisk {
			t.Errorf("span %d: demand cache (%.2f) should beat no cache (%.2f)", span, demand.AvgDisk, none.AvgDisk)
		}
	}
	var buf bytes.Buffer
	PrintAblationEviction(&buf, points)
	if buf.Len() == 0 {
		t.Error("empty eviction ablation output")
	}
}

func TestFig10RequiresDBMS(t *testing.T) {
	noDB, err := NewWorkspace(WorkspaceConfig{
		Years: 1, UpdatesPerDay: 10, Seed: 1, Countries: 10, RoadTypes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer noDB.Close()
	if _, err := Fig10(noDB, []int{1}, 1, 1); err == nil {
		t.Error("Fig10 without DBMS should fail")
	}
}
