package benchx

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rased/internal/cache"
	"rased/internal/core"
	"rased/internal/cube"
	"rased/internal/osm"
	"rased/internal/roads"
	"rased/internal/temporal"
	"rased/internal/update"
)

// singleCellQuery builds the paper's measurement query: "each query retrieves
// only one data cube cell", i.e. every dimension filtered to one value and no
// group-by, so latency isolates cube retrieval.
func (ws *Workspace) singleCellQuery(rng *rand.Rand, from, to temporal.Day) core.Query {
	return core.Query{
		From: from, To: to,
		ElementTypes: []string{osm.ElementType(rng.Intn(3)).String()},
		Countries:    []string{ws.Schema.Countries[rng.Intn(len(ws.Schema.Countries))]},
		RoadTypes:    []string{roads.Name(rng.Intn(len(ws.Schema.RoadTypes)))},
		UpdateTypes:  []string{update.Type(rng.Intn(4)).String()},
	}
}

// recentWindow picks a span-days window whose end is recency-skewed (the
// paper's caching rationale: inquiries about recent updates dominate).
func (ws *Workspace) recentWindow(rng *rand.Rand, spanDays int) (lo, hi temporal.Day) {
	offset := temporal.Day(rng.ExpFloat64() * 45)
	hi = ws.Hi - offset
	if hi < ws.Lo {
		hi = ws.Lo
	}
	lo = hi - temporal.Day(spanDays-1)
	if lo < ws.Lo {
		lo = ws.Lo
	}
	return lo, hi
}

// windowStart returns the first day of a query window spanning the last
// `years` calendar years of coverage (the paper's Figures 9 and 10 vary the
// window in whole years).
func (ws *Workspace) windowStart(years int) temporal.Day {
	endYear := temporal.YearPeriod(ws.Hi).Index
	lo := temporal.Period{Level: temporal.Yearly, Index: endYear - years + 1}.Start()
	if lo < ws.Lo {
		lo = ws.Lo
	}
	return lo
}

// newEngine builds an engine over the workspace index.
func (ws *Workspace) newEngine(opts core.Options) (*core.Engine, error) {
	return core.NewEngine(ws.Index, opts)
}

// checkQueries rejects a per-point query count that leaves nothing to
// average over.
func checkQueries(queries int) error {
	if queries < 1 {
		return fmt.Errorf("benchx: queries per point must be >= 1, got %d", queries)
	}
	return nil
}

// measure runs fn n times and returns the average wall time.
func measure(n int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// ---------------------------------------------------------------------------
// Figure 7: setting the cache size.

// Fig7Point is one measurement of the cache-size sweep.
type Fig7Point struct {
	CacheCubes int
	SpanMonths int
	AvgLatency time.Duration
	AvgDisk    float64
	Ev         Evidence
}

// Fig7 reproduces Figure 7: query response time while varying the cache size
// (in cubes — the paper's 128 MB..4 GB maps to 32..1000 of its 4 MB cubes)
// under query loads spanning 1, 3, 6, and 12 months.
func Fig7(ws *Workspace, cacheSizes, spanMonths []int, queries int, seed int64) ([]Fig7Point, error) {
	if err := checkQueries(queries); err != nil {
		return nil, err
	}
	var out []Fig7Point
	for _, slots := range cacheSizes {
		eng, err := ws.newEngine(core.Options{
			CacheSlots:        slots,
			Allocation:        cache.DefaultAllocation,
			LevelOptimization: true,
		})
		if err != nil {
			return nil, err
		}
		for _, span := range spanMonths {
			rng := rand.New(rand.NewSource(seed + int64(span)*1000))
			probe := startEvidence(eng)
			var disk int
			avg, err := measure(queries, func() error {
				lo, hi := ws.recentWindow(rng, span*30)
				res, err := eng.Analyze(ws.singleCellQuery(rng, lo, hi))
				if err != nil {
					return err
				}
				disk += res.Stats.DiskReads
				return nil
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig7Point{
				CacheCubes: slots,
				SpanMonths: span,
				AvgLatency: avg,
				AvgDisk:    float64(disk) / float64(queries),
				Ev:         probe.finish(fmt.Sprintf("%d cubes x %d mo", slots, span)),
			})
		}
	}
	return out, nil
}

// PrintFig7 renders the sweep as the paper's series (one line per span).
func PrintFig7(w io.Writer, points []Fig7Point) {
	fmt.Fprintln(w, "Figure 7: setting RASED cache size (avg ms per query)")
	fmt.Fprintf(w, "%-12s", "cache cubes")
	spans := spanSet(points)
	for _, s := range spans {
		fmt.Fprintf(w, "%12s", fmt.Sprintf("%d mo", s))
	}
	fmt.Fprintln(w)
	for _, c := range cacheSet(points) {
		fmt.Fprintf(w, "%-12d", c)
		for _, s := range spans {
			for _, p := range points {
				if p.CacheCubes == c && p.SpanMonths == s {
					fmt.Fprintf(w, "%12.3f", float64(p.AvgLatency)/1e6)
				}
			}
		}
		fmt.Fprintln(w)
	}
	evs := make([]Evidence, len(points))
	for i, p := range points {
		evs[i] = p.Ev
	}
	printEvidence(w, evs)
}

func spanSet(points []Fig7Point) []int {
	var out []int
	seen := map[int]bool{}
	for _, p := range points {
		if !seen[p.SpanMonths] {
			seen[p.SpanMonths] = true
			out = append(out, p.SpanMonths)
		}
	}
	return out
}

func cacheSet(points []Fig7Point) []int {
	var out []int
	seen := map[int]bool{}
	for _, p := range points {
		if !seen[p.CacheCubes] {
			seen[p.CacheCubes] = true
			out = append(out, p.CacheCubes)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 8: index levels vs storage.

// Fig8Point is the storage cost of an index configuration.
type Fig8Point struct {
	Years  int
	Levels int
	Cubes  int
	Bytes  int64
}

// Fig8 reproduces Figure 8: the storage required per number of hierarchy
// levels while varying the covered period 1..maxYears. Because every cube
// occupies one fixed-size page, storage is page size times the period count —
// computed exactly from the calendar.
func Fig8(schema *cube.Schema, maxYears int) []Fig8Point {
	pageSize := int64(cube.PageSize(schema))
	var out []Fig8Point
	for years := 1; years <= maxYears; years++ {
		lo := temporal.NewDay(2005, time.January, 1)
		hi := temporal.NewDay(2005+years-1, time.December, 31)
		days := int(hi-lo) + 1
		weeks := len(temporal.PeriodsBetween(temporal.Weekly, lo, hi))
		months := len(temporal.PeriodsBetween(temporal.Monthly, lo, hi))
		cubes := []int{
			days,
			days + weeks,
			days + weeks + months,
			days + weeks + months + years,
		}
		for levels := 1; levels <= 4; levels++ {
			out = append(out, Fig8Point{
				Years:  years,
				Levels: levels,
				Cubes:  cubes[levels-1],
				Bytes:  int64(cubes[levels-1]) * pageSize,
			})
		}
	}
	return out
}

// PrintFig8 renders storage per level count.
func PrintFig8(w io.Writer, points []Fig8Point) {
	fmt.Fprintln(w, "Figure 8: index storage vs number of levels (GB-equivalent pages)")
	fmt.Fprintf(w, "%-8s%14s%14s%14s%14s%12s\n", "years", "1 level", "2 levels", "3 levels", "4 levels", "4L/flat")
	byYear := map[int][]Fig8Point{}
	years := []int{}
	for _, p := range points {
		if len(byYear[p.Years]) == 0 {
			years = append(years, p.Years)
		}
		byYear[p.Years] = append(byYear[p.Years], p)
	}
	for _, y := range years {
		ps := byYear[y]
		fmt.Fprintf(w, "%-8d", y)
		for _, p := range ps {
			fmt.Fprintf(w, "%14d", p.Bytes)
		}
		fmt.Fprintf(w, "%12.3f\n", float64(ps[3].Bytes)/float64(ps[0].Bytes))
	}
}

// ---------------------------------------------------------------------------
// Figure 9: effect of each component.

// Variant names for Figure 9.
const (
	VariantFlat = "RASED-F" // flat index: no hierarchy, no cache
	VariantOpt  = "RASED-O" // hierarchy + level optimizer, no cache
	VariantFull = "RASED"   // + cache
)

// Fig9Point is one variant × window measurement.
type Fig9Point struct {
	WindowYears int
	Variant     string
	AvgLatency  time.Duration
	AvgCubes    float64
	AvgDisk     float64
	Ev          Evidence
}

// Fig9 reproduces Figure 9: query time of the three RASED variants while
// varying the query window from one to sixteen years (windows end at the most
// recent covered day, as dashboards query backwards from now).
func Fig9(ws *Workspace, windowYears []int, queries int, seed int64) ([]Fig9Point, error) {
	if err := checkQueries(queries); err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{VariantFlat, core.Options{CacheSlots: 0, LevelOptimization: false}},
		{VariantOpt, core.Options{CacheSlots: 0, LevelOptimization: true}},
		{VariantFull, core.Options{CacheSlots: 512, Allocation: cache.DefaultAllocation, LevelOptimization: true}},
	}
	var out []Fig9Point
	for _, v := range variants {
		eng, err := ws.newEngine(v.opts)
		if err != nil {
			return nil, err
		}
		for _, years := range windowYears {
			rng := rand.New(rand.NewSource(seed + int64(years)))
			lo := ws.windowStart(years)
			probe := startEvidence(eng)
			var cubes, disk int
			avg, err := measure(queries, func() error {
				res, err := eng.Analyze(ws.singleCellQuery(rng, lo, ws.Hi))
				if err != nil {
					return err
				}
				cubes += res.Stats.CubesFetched
				disk += res.Stats.DiskReads
				return nil
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig9Point{
				WindowYears: years,
				Variant:     v.name,
				AvgLatency:  avg,
				AvgCubes:    float64(cubes) / float64(queries),
				AvgDisk:     float64(disk) / float64(queries),
				Ev:          probe.finish(fmt.Sprintf("%s x %d y", v.name, years)),
			})
		}
	}
	return out, nil
}

// PrintFig9 renders the ablation series.
func PrintFig9(w io.Writer, points []Fig9Point) {
	fmt.Fprintln(w, "Figure 9: effect of each component in RASED (avg ms per query)")
	fmt.Fprintf(w, "%-8s%14s%14s%14s\n", "years", VariantFlat, VariantOpt, VariantFull)
	byYear := map[int]map[string]Fig9Point{}
	var years []int
	for _, p := range points {
		if byYear[p.WindowYears] == nil {
			byYear[p.WindowYears] = map[string]Fig9Point{}
			years = append(years, p.WindowYears)
		}
		byYear[p.WindowYears][p.Variant] = p
	}
	for _, y := range years {
		m := byYear[y]
		fmt.Fprintf(w, "%-8d%14.3f%14.3f%14.3f\n", y,
			float64(m[VariantFlat].AvgLatency)/1e6,
			float64(m[VariantOpt].AvgLatency)/1e6,
			float64(m[VariantFull].AvgLatency)/1e6)
	}
	evs := make([]Evidence, len(points))
	for i, p := range points {
		evs[i] = p.Ev
	}
	printEvidence(w, evs)
}

// ---------------------------------------------------------------------------
// Figure 10: RASED vs a traditional DBMS.

// Fig10Point is one engine × window measurement.
type Fig10Point struct {
	WindowYears int
	Engine      string // "RASED" or "DBMS"
	AvgLatency  time.Duration
	AvgDisk     float64
	Ev          Evidence
}

// Fig10 reproduces Figure 10: RASED against the scan-based DBMS baseline
// (whose buffer pool gets the same memory budget as RASED's cache) while
// varying the query window from one to sixteen years. The workspace must be
// built WithDBMS.
func Fig10(ws *Workspace, windowYears []int, queries int, seed int64) ([]Fig10Point, error) {
	if ws.Table == nil {
		return nil, fmt.Errorf("benchx: Fig10 needs a workspace built WithDBMS")
	}
	if err := checkQueries(queries); err != nil {
		return nil, err
	}
	eng, err := ws.newEngine(core.Options{
		CacheSlots: 512, Allocation: cache.DefaultAllocation, LevelOptimization: true,
	})
	if err != nil {
		return nil, err
	}
	var out []Fig10Point
	for _, years := range windowYears {
		rng := rand.New(rand.NewSource(seed + int64(years)))
		lo := ws.windowStart(years)

		probe := startEvidence(eng)
		var disk int
		avg, err := measure(queries, func() error {
			res, err := eng.Analyze(ws.singleCellQuery(rng, lo, ws.Hi))
			if err != nil {
				return err
			}
			disk += res.Stats.DiskReads
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig10Point{WindowYears: years, Engine: "RASED",
			AvgLatency: avg, AvgDisk: float64(disk) / float64(queries),
			Ev: probe.finish(fmt.Sprintf("RASED x %d y", years))})

		rng = rand.New(rand.NewSource(seed + int64(years)))
		disk = 0
		avg, err = measure(queries, func() error {
			res, err := ws.Table.Analyze(ws.singleCellQuery(rng, lo, ws.Hi))
			if err != nil {
				return err
			}
			disk += res.Stats.DiskReads
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig10Point{WindowYears: years, Engine: "DBMS",
			AvgLatency: avg, AvgDisk: float64(disk) / float64(queries)})

		// The extension baseline: the table clustered on Date (scan scales
		// with the window instead of the relation — still far from RASED).
		if ws.Clustered != nil {
			rng = rand.New(rand.NewSource(seed + int64(years)))
			disk = 0
			avg, err = measure(queries, func() error {
				res, err := ws.Clustered.Analyze(ws.singleCellQuery(rng, lo, ws.Hi))
				if err != nil {
					return err
				}
				disk += res.Stats.DiskReads
				return nil
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig10Point{WindowYears: years, Engine: "DBMS-clustered",
				AvgLatency: avg, AvgDisk: float64(disk) / float64(queries)})
		}
	}
	return out, nil
}

// PrintFig10 renders the comparison (with the clustered-table extension
// baseline when it was measured).
func PrintFig10(w io.Writer, points []Fig10Point) {
	byYear := map[int]map[string]Fig10Point{}
	var years []int
	hasClustered := false
	for _, p := range points {
		if byYear[p.WindowYears] == nil {
			byYear[p.WindowYears] = map[string]Fig10Point{}
			years = append(years, p.WindowYears)
		}
		byYear[p.WindowYears][p.Engine] = p
		if p.Engine == "DBMS-clustered" {
			hasClustered = true
		}
	}
	fmt.Fprintln(w, "Figure 10: RASED vs traditional DBMS (avg ms per query)")
	if hasClustered {
		fmt.Fprintf(w, "%-8s%14s%14s%16s%12s\n", "years", "RASED", "DBMS", "DBMS-clustered", "speedup")
	} else {
		fmt.Fprintf(w, "%-8s%14s%14s%12s\n", "years", "RASED", "DBMS", "speedup")
	}
	for _, y := range years {
		m := byYear[y]
		r, d := m["RASED"].AvgLatency, m["DBMS"].AvgLatency
		speedup := 0.0
		if r > 0 {
			speedup = float64(d) / float64(r)
		}
		if hasClustered {
			fmt.Fprintf(w, "%-8d%14.3f%14.3f%16.3f%12.1fx\n", y,
				float64(r)/1e6, float64(d)/1e6,
				float64(m["DBMS-clustered"].AvgLatency)/1e6, speedup)
		} else {
			fmt.Fprintf(w, "%-8d%14.3f%14.3f%12.1fx\n", y, float64(r)/1e6, float64(d)/1e6, speedup)
		}
	}
	evs := make([]Evidence, len(points))
	for i, p := range points {
		evs[i] = p.Ev
	}
	printEvidence(w, evs)
}
