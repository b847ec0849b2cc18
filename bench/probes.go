package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"rased/internal/cube"
	"rased/internal/plan"
	"rased/internal/server"
	"rased/internal/temporal"
	"rased/internal/tindex"
)

// Probe sizes: enough calls for a stable mean, few enough to stay in seconds.
const (
	probePages  = 64  // pages decoded
	probeCubes  = 6   // decoded cubes per index level every aggregation shape runs over
	probeShapes = 32  // most used filter/group-by shapes
	probeFetch  = 600 // cubes fetched through FetchRunPooledCtx
	probeReps   = 3
)

// probeResult prices the engine's inner layers, which spans recorded from
// outside the program cannot see, by replaying what the trace touched
// through the layers' own entry points.
type probeResult struct {
	fetchNSPerCube  float64 // FetchRunPooledCtx minus page reads and decode
	runLen          float64 // cubes per fetch call
	decodeNSPerPage float64 // UnmarshalPageInto, checksum verified
	aggMeanNS       float64 // AggregatePlanInto per cube, weighted by use
	planNS          float64 // plan.Optimize per request

	shapeOf   []string // per request
	aggNSOf   map[string][temporal.NumLevels]float64
	compileNS map[string]float64
}

// aggNS is the probed cost of aggregating request i's cubes: CompileAgg once,
// then AggregatePlanInto per cube at the cost of the cube's level (a monthly
// cube has many more non-zero cells than a daily one).
func (pr *probeResult) aggNS(i int, ps []temporal.Period) float64 {
	byLevel, ok := pr.aggNSOf[pr.shapeOf[i]]
	total := pr.compileNS[pr.shapeOf[i]]
	for _, p := range ps {
		if ok && byLevel[p.Level] > 0 {
			total += byLevel[p.Level]
		} else {
			total += pr.aggMeanNS
		}
	}
	return total
}

// shapeKey identifies the aggregation a request compiles.
func shapeKey(r *server.AnalysisRequest) string {
	return fmt.Sprintf("%q|%q|%q|%q|%q", r.ElementTypes, r.Countries, r.RoadTypes, r.UpdateTypes, r.GroupBy)
}

func runProbes(ip *inproc, dep *deployment, reqs []request, tr *traceResult, liveOn bool) (*probeResult, error) {
	ctx := context.Background()
	pr := &probeResult{aggNSOf: map[string][temporal.NumLevels]float64{}, compileNS: map[string]float64{}}
	schema := dep.schema

	// Which pages to decode: the ones the trace missed, else (everything was
	// cached) the ones it touched. Which cubes to aggregate: a few of every
	// level the trace touched.
	var sample []temporal.Period
	var levelCount [temporal.NumLevels]float64
	perLevel := map[temporal.Level]int{}
	seen := map[temporal.Period]bool{}
	for _, missedOnly := range []bool{true, false} {
		for i := range tr.reqs {
			ps := tr.reqs[i].all
			if missedOnly {
				ps = tr.reqs[i].missed
			}
			for _, p := range ps {
				if !missedOnly {
					levelCount[p.Level]++
				}
				wanted := len(sample) < probePages && (missedOnly || perLevel[p.Level] < probeCubes)
				if !seen[p] && wanted {
					seen[p] = true
					perLevel[p.Level]++
					sample = append(sample, p)
				}
			}
		}
	}

	// cube: decode.
	var cubes [temporal.NumLevels][]*cube.Cube
	var decodeNS, decodes float64
	buf := make([]byte, ip.ix.Store().PageSize())
	for _, p := range sample {
		id, _, cold, ok := ip.ix.ExtentOf(p)
		if !ok || cold {
			continue // folded away or compacted since the trace ran
		}
		if err := ip.ix.Store().ReadPageCtx(ctx, id, buf); err != nil {
			return nil, fmt.Errorf("probe: read page of %v: %w", p, err)
		}
		dst := cube.New(schema)
		for rep := 0; rep < probeReps; rep++ {
			t0 := time.Now()
			if _, err := cube.UnmarshalPageInto(schema, dst, buf, true); err != nil {
				if liveOn {
					break // the page was recycled by a fold; skip it
				}
				return nil, fmt.Errorf("probe: decode page of %v: %w", p, err)
			}
			decodeNS += float64(time.Since(t0).Nanoseconds())
			decodes++
		}
		if len(cubes[p.Level]) < probeCubes {
			cubes[p.Level] = append(cubes[p.Level], dst)
		}
	}
	if decodes > 0 {
		pr.decodeNSPerPage = decodeNS / decodes
	}

	// cube: aggregate, per filter/group-by shape, weighted by cubes aggregated.
	names := newOracle(schema) // for its name tables only
	weight := map[string]float64{}
	first := map[string]*server.AnalysisRequest{}
	pr.shapeOf = make([]string, len(reqs))
	for i := range reqs {
		k := shapeKey(&reqs[i].req)
		pr.shapeOf[i] = k
		weight[k] += float64(tr.reqs[i].cubes)
		if first[k] == nil {
			first[k] = &reqs[i].req
		}
	}
	shapes := make([]string, 0, len(weight))
	for k := range weight {
		shapes = append(shapes, k)
	}
	sort.Slice(shapes, func(a, b int) bool {
		if weight[shapes[a]] != weight[shapes[b]] {
			return weight[shapes[a]] > weight[shapes[b]]
		}
		return shapes[a] < shapes[b]
	})
	var aggSum, aggWeight float64
	for _, k := range shapes[:min(probeShapes, len(shapes))] {
		f, g, err := compileShape(first[k], names)
		if err != nil {
			return nil, err
		}
		var compile float64
		var byLevel [temporal.NumLevels]float64
		dst := map[cube.Key]uint64{}
		for rep := 0; rep < probeReps; rep++ {
			t0 := time.Now()
			ap := cube.CompileAgg(schema, f, g)
			compile += float64(time.Since(t0).Nanoseconds())
			for lvl, cbs := range cubes {
				t1 := time.Now()
				for _, cb := range cbs {
					clear(dst)
					cb.AggregatePlanInto(ap, dst)
				}
				if len(cbs) > 0 {
					byLevel[lvl] += float64(time.Since(t1).Nanoseconds()) / float64(len(cbs)) / probeReps
				}
			}
		}
		pr.compileNS[k] = compile / probeReps
		pr.aggNSOf[k] = byLevel
		// The shape's mean per cube, at the trace's own level mix.
		for lvl, ns := range byLevel {
			aggSum += ns * levelCount[lvl] * weight[k]
			aggWeight += levelCount[lvl] * weight[k]
		}
	}
	if aggWeight > 0 {
		pr.aggMeanNS = aggSum / aggWeight
	}

	// tindex: the missed periods of each request, in page-adjacent runs. The
	// pass repeats and the cheapest counts: the first one also pays for
	// filling the page pool, which a long-running server has long done.
	anyMissed := false
	for i := range tr.reqs {
		anyMissed = anyMissed || len(tr.reqs[i].missed) > 0
	}
	var runs [][]temporal.Period
	for i, cubes := 0, 0; i < len(tr.reqs) && cubes < probeFetch; i++ {
		ps := tr.reqs[i].missed
		if !anyMissed {
			ps = tr.reqs[i].all // everything was cached: price the fetch path anyway
		}
		for _, run := range adjacentRuns(ip.ix, ps) {
			runs = append(runs, run)
			cubes += len(run)
		}
	}
	for rep := 0; rep < probeReps; rep++ {
		first := len(ip.rec.spans)
		var fetched, calls float64
		for _, run := range runs {
			fctx, end := ip.rec.begin(ctx, "fetch_run", -1)
			cbs, err := ip.ix.FetchRunPooledCtx(fctx, run)
			end(0, 0)
			if errors.Is(err, tindex.ErrNotAdjacent) || (err != nil && liveOn) {
				continue // a fold moved a page between lookup and read
			}
			if err != nil {
				return nil, fmt.Errorf("probe: fetch run: %w", err)
			}
			for _, cb := range cbs {
				ip.ix.ReleasePooled(cb)
			}
			fetched += float64(len(cbs))
			calls++
		}
		if fetched == 0 {
			break
		}
		reads := map[int][]interval{}
		var self float64
		for _, s := range ip.rec.spans[first:] {
			if s.Name == "pager" {
				reads[s.Parent] = append(reads[s.Parent], interval{s.Start, s.End})
			}
		}
		for _, s := range ip.rec.spans[first:] {
			if s.Name == "fetch_run" {
				self += float64(selfTime(s.Start, s.End, reads[s.ID]))
			}
		}
		perCube := max(0, self/fetched-pr.decodeNSPerPage)
		if rep == 0 || perCube < pr.fetchNSPerCube {
			pr.fetchNSPerCube = perCube
		}
		pr.runLen = fetched / calls
	}

	// plan: the optimizer over each request's window, nothing cached.
	lo, hi, _ := ip.ix.Coverage()
	t0 := time.Now()
	for i := range reqs {
		from, err := temporal.ParseDay(reqs[i].req.From)
		if err != nil {
			return nil, err
		}
		to, err := temporal.ParseDay(reqs[i].req.To)
		if err != nil {
			return nil, err
		}
		from, to = max(from, lo), min(to, hi)
		if to < from {
			continue
		}
		if _, err := plan.Optimize(from, to, temporal.Yearly, ip.ix, nil); err != nil {
			return nil, fmt.Errorf("probe: plan: %w", err)
		}
	}
	pr.planNS = float64(time.Since(t0).Nanoseconds()) / float64(len(reqs))
	return pr, nil
}

// compileShape resolves a request's filter names and group-by into cube terms.
func compileShape(r *server.AnalysisRequest, names *oracle) (cube.Filter, cube.GroupBy, error) {
	f, g, err := names.resolve(r)
	return cube.Filter{Elements: f[dimElement], Countries: f[dimCountry], RoadTypes: f[dimRoad], UpdateTypes: f[dimUpdate]},
		cube.GroupBy{Element: g[dimElement], Country: g[dimCountry], RoadType: g[dimRoad], Update: g[dimUpdate]}, err
}

// adjacentRuns splits periods into runs whose pages follow one another on
// disk in one tier: what one coalesced read can serve.
func adjacentRuns(ix *tindex.Index, ps []temporal.Period) [][]temporal.Period {
	type ref struct {
		p         temporal.Period
		id, slots int
		cold      bool
	}
	refs := make([]ref, 0, len(ps))
	seen := map[temporal.Period]bool{}
	for _, p := range ps {
		if id, slots, cold, ok := ix.ExtentOf(p); ok && !seen[p] {
			seen[p] = true
			refs = append(refs, ref{p, id, slots, cold})
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].cold != refs[b].cold {
			return !refs[a].cold
		}
		return refs[a].id < refs[b].id
	})
	var runs [][]temporal.Period
	for i, r := range refs {
		if i > 0 && r.cold == refs[i-1].cold && r.id == refs[i-1].id+refs[i-1].slots {
			runs[len(runs)-1] = append(runs[len(runs)-1], r.p)
			continue
		}
		runs = append(runs, []temporal.Period{r.p})
	}
	return runs
}
