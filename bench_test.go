package rased

// Benchmarks covering every table and figure of the paper's evaluation
// (Section VIII). Each figure also has a full parameter-sweep harness in
// cmd/rased-bench (with disk-latency injection); the testing.B benchmarks
// here measure the same code paths per query on a shared 4-year workspace so
// regressions are visible in `go test -bench=.`.
//
//	Figure 7  -> BenchmarkFig7CacheSize
//	Figure 8  -> BenchmarkFig8IndexLevels
//	Figure 9  -> BenchmarkFig9Components
//	Figure 10 -> BenchmarkFig10VsDBMS
//	Fig 2/3   -> BenchmarkQueryCountryAnalysis
//	Fig 4     -> BenchmarkQueryRoadTypeAnalysis
//	Fig 5     -> BenchmarkQueryTimeSeries
//	§VI-A     -> BenchmarkIngestDay (maintenance), BenchmarkFig8IndexLevels (size)
//	§IV-B     -> BenchmarkWarehouseSample, BenchmarkWarehouseByChangeset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rased/internal/benchx"
	"rased/internal/cache"
	"rased/internal/core"
	"rased/internal/crawl"
	"rased/internal/cube"
	"rased/internal/geo"
	"rased/internal/osm"
	"rased/internal/osmgen"
	"rased/internal/plan"
	"rased/internal/temporal"
	"rased/internal/tindex"
	"rased/internal/update"
	"rased/internal/warehouse"
)

var (
	bwsOnce sync.Once
	bws     *benchx.Workspace
	bwsErr  error
)

// benchWorkspace lazily builds the shared 4-year benchmark deployment. No
// latency is injected: testing.B measures the pure engine cost; the
// disk-modeled sweeps live in cmd/rased-bench.
func benchWorkspace(b *testing.B) *benchx.Workspace {
	b.Helper()
	bwsOnce.Do(func() {
		bws, bwsErr = benchx.NewWorkspace(benchx.WorkspaceConfig{
			Years:           4,
			UpdatesPerDay:   100,
			Seed:            1,
			Countries:       30,
			RoadTypes:       8,
			WithDBMS:        true,
			DBMSBufferBytes: 4 << 20,
		})
	})
	if bwsErr != nil {
		b.Fatal(bwsErr)
	}
	return bws
}

func benchEngine(b *testing.B, ws *benchx.Workspace, opts core.Options) *core.Engine {
	b.Helper()
	eng, err := core.NewEngine(ws.Index, opts)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func fullOptions(slots int) core.Options {
	return core.Options{CacheSlots: slots, Allocation: cache.DefaultAllocation, LevelOptimization: true}
}

// BenchmarkFig7CacheSize measures single-cell queries over recent 1/6-month
// windows while varying the cache size (Figure 7's sweep).
func BenchmarkFig7CacheSize(b *testing.B) {
	ws := benchWorkspace(b)
	for _, slots := range []int{32, 128, 512} {
		eng := benchEngine(b, ws, fullOptions(slots))
		for _, span := range []int{1, 6} {
			b.Run(fmt.Sprintf("slots=%d/span=%dmo", slots, span), func(b *testing.B) {
				rng := rand.New(rand.NewSource(7))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					lo := ws.Hi - temporal.Day(span*30-1) - temporal.Day(rng.Intn(40))
					hi := lo + temporal.Day(span*30-1)
					q := core.Query{
						From: lo, To: hi,
						Countries: []string{ws.Schema.Countries[rng.Intn(len(ws.Schema.Countries))]},
					}
					if _, err := eng.Analyze(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8IndexLevels measures the storage computation for the paper's
// full-scale schema across 1..16 years (Figure 8).
func BenchmarkFig8IndexLevels(b *testing.B) {
	schema := cube.DefaultSchema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points := benchx.Fig8(schema, 16)
		if len(points) != 64 {
			b.Fatal("bad point count")
		}
	}
}

// BenchmarkFig9Components measures one query per variant over a 4-year window
// (Figure 9's ablation: flat vs level-optimized vs cached).
func BenchmarkFig9Components(b *testing.B) {
	ws := benchWorkspace(b)
	variants := []struct {
		name string
		opts core.Options
	}{
		{"RASED-F", core.Options{LevelOptimization: false}},
		{"RASED-O", core.Options{LevelOptimization: true}},
		{"RASED", fullOptions(512)},
	}
	for _, v := range variants {
		eng := benchEngine(b, ws, v.opts)
		b.Run(v.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := core.Query{
					From: ws.Lo, To: ws.Hi,
					Countries: []string{ws.Schema.Countries[rng.Intn(len(ws.Schema.Countries))]},
				}
				if _, err := eng.Analyze(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10VsDBMS measures the same full-window query on RASED and on
// the scan-based baseline table (Figure 10).
func BenchmarkFig10VsDBMS(b *testing.B) {
	ws := benchWorkspace(b)
	eng := benchEngine(b, ws, fullOptions(512))
	q := core.Query{
		From: ws.Lo, To: ws.Hi,
		GroupBy: core.GroupBy{Country: true, ElementType: true},
	}
	b.Run("RASED", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Analyze(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DBMS", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Table.Analyze(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryCountryAnalysis is the paper's Example 1 (Figures 2-3).
func BenchmarkQueryCountryAnalysis(b *testing.B) {
	ws := benchWorkspace(b)
	eng := benchEngine(b, ws, fullOptions(512))
	q := core.Query{
		From: ws.Hi - 364, To: ws.Hi,
		UpdateTypes: []string{"create", "geometry", "metadata"},
		GroupBy:     core.GroupBy{Country: true, ElementType: true},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRoadTypeAnalysis is the paper's Example 2 (Figure 4).
func BenchmarkQueryRoadTypeAnalysis(b *testing.B) {
	ws := benchWorkspace(b)
	eng := benchEngine(b, ws, fullOptions(512))
	q := core.Query{
		From: ws.Lo, To: ws.Hi,
		Countries:   []string{ws.Schema.Countries[0]},
		UpdateTypes: []string{"create", "geometry", "metadata"},
		GroupBy:     core.GroupBy{RoadType: true, ElementType: true},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTimeSeries is the paper's Example 3 (Figure 5): a daily
// percentage series over a year.
func BenchmarkQueryTimeSeries(b *testing.B) {
	ws := benchWorkspace(b)
	eng := benchEngine(b, ws, fullOptions(512))
	q := core.Query{
		From: ws.Hi - 364, To: ws.Hi,
		Countries:  []string{ws.Schema.Countries[1], ws.Schema.Countries[2], ws.Schema.Countries[3]},
		GroupBy:    core.GroupBy{Country: true, Date: core.ByDay},
		Percentage: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestDay measures daily index maintenance (Section VI-A: build a
// day cube and append it, with rollups amortized across the month).
func BenchmarkIngestDay(b *testing.B) {
	schema := cube.ScaledSchema(30, 8)
	ix, err := tindex.Create(b.TempDir(), schema, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	ing := core.NewIngestor(ix)
	day := temporal.NewDay(2021, 1, 1)
	rng := rand.New(rand.NewSource(1))
	recs := make([]update.Record, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			recs[j] = update.Record{
				ElementType: osm.ElementType(rng.Intn(3)),
				Day:         day,
				Country:     uint16(rng.Intn(30)),
				RoadType:    uint16(rng.Intn(8)),
				UpdateType:  update.Type(rng.Intn(4)),
			}
		}
		if err := ing.AppendDay(day, recs); err != nil {
			b.Fatal(err)
		}
		day++
	}
}

// BenchmarkAblationPageDecode compares the two ways a page becomes a cube on
// a full-scale (paper geometry, ~4.5 MB) page: allocating a fresh cube per
// page (the build side's Fetch) versus decoding into a recycled one (the
// query side's FetchRunPooledCtx).
func BenchmarkAblationPageDecode(b *testing.B) {
	schema := cube.DefaultSchema()
	cb := cube.New(schema)
	rng := rand.New(rand.NewSource(1))
	de, dc, dr, du := schema.Dims()
	for i := 0; i < 100000; i++ {
		cb.Add(rng.Intn(de), rng.Intn(dc), rng.Intn(dr), rng.Intn(du), 1)
	}
	page := cube.MarshalPage(cb, temporal.Period{Level: temporal.Daily, Index: 1})
	ap := cube.CompileAgg(schema, cube.Filter{Elements: []int{1}, Countries: []int{5}, UpdateTypes: []int{0}},
		cube.GroupBy{RoadType: true})
	dst := make(map[cube.Key]uint64)

	b.Run("fresh-cube", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			full, _, err := cube.UnmarshalPage(schema, page)
			if err != nil {
				b.Fatal(err)
			}
			clear(dst)
			full.AggregatePlanInto(ap, dst)
		}
	})
	b.Run("recycled-cube", func(b *testing.B) {
		scratch := cube.New(schema)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cube.UnmarshalPageInto(schema, scratch, page, true); err != nil {
				b.Fatal(err)
			}
			clear(dst)
			scratch.AggregatePlanInto(ap, dst)
		}
	})
}

// BenchmarkAblationCacheAllocation measures disk reads under different
// (α, β, γ, θ) splits for a 12-month query load (Section VII-A trade-off).
func BenchmarkAblationCacheAllocation(b *testing.B) {
	ws := benchWorkspace(b)
	for _, na := range benchx.StandardAllocations() {
		eng := benchEngine(b, ws, core.Options{
			CacheSlots: 128, Allocation: na.Alloc, LevelOptimization: true,
		})
		b.Run(na.Name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hi := ws.Hi - temporal.Day(rng.Intn(30))
				lo := hi - 359
				q := core.Query{
					From: lo, To: hi,
					Countries: []string{ws.Schema.Countries[rng.Intn(len(ws.Schema.Countries))]},
				}
				if _, err := eng.Analyze(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDailyCrawl measures the daily crawler on one generated day
// (Section V's daily pipeline stage).
func BenchmarkDailyCrawl(b *testing.B) {
	g := osmgen.New(osmgen.Config{
		Seed: 1, Start: temporal.NewDay(2021, 1, 1), UpdatesPerDay: 400, SeedElements: 1000,
	})
	csIdx := crawl.BuildChangesetIndex(g.Changesets())
	art := g.NextDay()
	csIdx.Add(art.Changesets)
	reg := geo.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := crawl.Daily(art.Change, csIdx, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorDay measures the synthetic world generator.
func BenchmarkGeneratorDay(b *testing.B) {
	g := osmgen.New(osmgen.Config{
		Seed: 2, Start: temporal.NewDay(2021, 1, 1), UpdatesPerDay: 400, SeedElements: 1000,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextDay()
	}
}

// BenchmarkPlanOptimize measures the level optimizer on a 16-year window
// (Section VII-B; pure planning, no fetches).
func BenchmarkPlanOptimize(b *testing.B) {
	ws := benchWorkspace(b)
	lo, hi, _ := ws.Index.Coverage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl, err := plan.Optimize(lo, hi, temporal.Yearly, ws.Index, nil)
		if err != nil {
			b.Fatal(err)
		}
		if pl.Fetches == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkCubeMerge measures the rollup primitive on paper-scale cubes.
func BenchmarkCubeMerge(b *testing.B) {
	schema := cube.DefaultSchema()
	a := cube.New(schema)
	c := cube.New(schema)
	rng := rand.New(rand.NewSource(1))
	de, dc, dr, du := schema.Dims()
	for i := 0; i < 50000; i++ {
		c.Add(rng.Intn(de), rng.Intn(dc), rng.Intn(dr), rng.Intn(du), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarehouseSample measures sample-update retrieval (Section IV-B).
func BenchmarkWarehouseSample(b *testing.B) {
	dir := b.TempDir()
	wh, err := warehouse.Open(dir + "/wh.db")
	if err != nil {
		b.Fatal(err)
	}
	defer wh.Close()
	rng := rand.New(rand.NewSource(2))
	recs := make([]update.Record, 50000)
	for i := range recs {
		recs[i] = update.Record{
			ElementType: osm.ElementType(rng.Intn(3)),
			Day:         temporal.Day(rng.Intn(365)),
			Country:     uint16(rng.Intn(200)),
			Lat:         rng.Float64()*130 - 60,
			Lon:         rng.Float64()*360 - 180,
			RoadType:    uint16(rng.Intn(150)),
			UpdateType:  update.Type(rng.Intn(4)),
			ChangesetID: int64(rng.Intn(5000)),
		}
	}
	if err := wh.Add(recs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wh.Sample(warehouse.SampleQuery{N: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarehouseByChangeset measures the hash-index lookup path.
func BenchmarkWarehouseByChangeset(b *testing.B) {
	dir := b.TempDir()
	wh, err := warehouse.Open(dir + "/wh.db")
	if err != nil {
		b.Fatal(err)
	}
	defer wh.Close()
	rng := rand.New(rand.NewSource(3))
	recs := make([]update.Record, 50000)
	for i := range recs {
		recs[i] = update.Record{
			ElementType: osm.Node,
			UpdateType:  update.Create,
			ChangesetID: int64(rng.Intn(5000)),
		}
	}
	if err := wh.Add(recs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wh.ByChangeset(int64(i % 5000)); err != nil {
			b.Fatal(err)
		}
	}
}
