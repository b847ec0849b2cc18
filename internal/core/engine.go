package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rased/internal/cache"
	"rased/internal/cube"
	"rased/internal/exec"
	"rased/internal/geo"
	"rased/internal/osm"
	"rased/internal/plan"
	"rased/internal/roads"
	"rased/internal/temporal"
	"rased/internal/tindex"
	"rased/internal/update"
)

// Options configures an Engine.
type Options struct {
	// CacheSlots is the number of cubes the cache pins in memory; 0 disables
	// caching (the paper's RASED-O variant).
	CacheSlots int
	// Allocation splits the cache slots across levels; zero value means
	// cache.DefaultAllocation.
	Allocation cache.Allocation
	// LevelOptimization enables the level optimizer; when false every query
	// reads daily cubes only (with a 1-level index this is the paper's
	// RASED-F variant).
	LevelOptimization bool
	// FetchWorkers bounds how many cube fetches run concurrently across all
	// in-flight queries (the shared exec.Pool). 0 or 1 fetches serially.
	FetchWorkers int
	// Singleflight deduplicates identical concurrent cube fetches across
	// queries: overlapping dashboards cost one disk pass per page.
	Singleflight bool
	// MaxInflight bounds concurrently executing queries (admission control);
	// 0 admits everything.
	MaxInflight int
	// MaxQueue bounds queries waiting for admission when MaxInflight is
	// reached; beyond it AnalyzeContext fails fast with exec.ErrRejected.
	MaxQueue int
	// CachePolicy selects the cube cache: "preload" (default, the paper's
	// statically preloaded recency cache) or "sharded" (demand-filled,
	// hash-sharded for concurrent access, one shard per CPU).
	CachePolicy string
	// CacheBytes caps the demand cache's resident cube bytes (0 = no byte
	// cap; slots alone bound the cache). "sharded" policy only.
	CacheBytes int64
	// ReadRetries is how many extra attempts the index makes when a page
	// read fails transiently (wrapping pagestore.ErrTransient), with
	// jittered exponential backoff starting at ReadRetryBackoff. 0 (the
	// zero-value default) disables retry.
	ReadRetries int
	// ReadRetryBackoff is the base delay before the first read retry.
	ReadRetryBackoff time.Duration
	// DegradedFallback replans around cubes that fail to read mid-query:
	// a corrupt monthly cube is answered from its weekly + daily
	// constituents (bit-identical, at extra I/O cost), and only an
	// unreadable leaf day fails the query — with the typed ErrDegraded.
	// Off in the zero value; on in DefaultOptions.
	DegradedFallback bool
	// QoSPriority switches admission control to the class-priority
	// discipline: freed slots go to the highest-priority waiting traffic
	// class (interactive > api > bulk, read from the query context) instead
	// of arrival order. Requires MaxInflight > 0.
	QoSPriority bool
	// TenantRate enables per-tenant token-bucket rate limiting at this many
	// queries per second per tenant (burst TenantBurst); 0 disables. Over-
	// limit queries fail fast with exec.ErrThrottled before consuming an
	// admission slot.
	TenantRate  float64
	TenantBurst float64
	// TenantMaxTracked bounds the limiter's per-tenant state (0 = default).
	TenantMaxTracked int
	// ResultCacheTTL enables the epoch-stamped whole-result cache: identical
	// queries repeated within the TTL (and the same index epoch) are served
	// without execution. 0 disables. See exec.ResultCache for the live-fold
	// invalidation contract.
	ResultCacheTTL time.Duration
	// ResultCacheSlots bounds the result cache's entry count.
	ResultCacheSlots int
}

// DefaultOptions is the full RASED configuration.
func DefaultOptions() Options {
	return Options{
		CacheSlots:        512,
		Allocation:        cache.DefaultAllocation,
		LevelOptimization: true,
		FetchWorkers:      runtime.GOMAXPROCS(0),
		Singleflight:      true,
		ReadRetries:       2,
		ReadRetryBackoff:  2 * time.Millisecond,
		DegradedFallback:  true,
	}
}

// Engine answers analysis queries against a hierarchical temporal index.
type Engine struct {
	ix     *tindex.Index
	reg    *geo.Registry
	cache  *cache.Cache   // non-nil only under the "preload" policy
	demand *cache.Sharded // non-nil only under the "sharded" policy
	opts   Options
	met    *EngineMetrics

	pool    *exec.Pool          // nil: serial fetches
	flight  *exec.Group         // nil: no cross-query fetch dedup
	adm     *exec.Controller    // nil: admit everything
	limiter *exec.TenantLimiter // nil: no per-tenant rate limit
	rcache  *exec.ResultCache   // nil: no whole-result caching

	mu        sync.RWMutex
	snapshots []sizeSnapshot // network sizes over time, sorted by AsOf

	// Live-ingest freshness state (see live.go). liveOn gates the per-probe
	// map lookup so batch deployments pay one atomic load; liveReq maps each
	// live-updated period to the minimum epoch a cache hit must carry.
	liveOn  atomic.Bool
	liveMu  sync.RWMutex
	liveReq map[temporal.Period]uint64
}

// sizeSnapshot is the per-country road-network size as of one day; the
// monthly crawler produces one per month, and Percentage(*) uses the snapshot
// in effect at the query window's end.
type sizeSnapshot struct {
	asOf  temporal.Day
	sizes map[int]uint64
}

// NewEngine builds an engine over an index. When opts.CacheSlots > 0 the
// cache is preloaded with the most recent cubes per the allocation.
func NewEngine(ix *tindex.Index, opts Options) (*Engine, error) {
	e := &Engine{
		ix:   ix,
		reg:  geo.Default(),
		opts: opts,
		met:  newEngineMetrics(),
	}
	policy := opts.CachePolicy
	if policy == "" {
		policy = "preload"
	}
	if opts.ReadRetries < 0 {
		return nil, fmt.Errorf("core: ReadRetries must be >= 0, got %d", opts.ReadRetries)
	}
	if opts.CacheBytes < 0 {
		return nil, fmt.Errorf("core: CacheBytes must be >= 0, got %d", opts.CacheBytes)
	}
	if opts.CacheBytes > 0 && (policy == "preload" || opts.CacheSlots <= 0) {
		return nil, fmt.Errorf("core: CacheBytes requires the sharded cache policy with CacheSlots > 0")
	}
	if opts.ReadRetries > 0 {
		ix.SetRetryPolicy(tindex.RetryPolicy{Attempts: opts.ReadRetries, Backoff: opts.ReadRetryBackoff})
	}
	if opts.CacheSlots > 0 {
		alloc := opts.Allocation
		if alloc == (cache.Allocation{}) {
			alloc = cache.DefaultAllocation
		}
		switch policy {
		case "preload":
			c, err := cache.New(opts.CacheSlots, alloc)
			if err != nil {
				return nil, err
			}
			if err := c.Preload(ix); err != nil {
				return nil, err
			}
			e.cache = c
		case "sharded":
			s, err := cache.NewSharded(opts.CacheSlots, alloc, 0)
			if err != nil {
				return nil, err
			}
			if opts.CacheBytes > 0 {
				s.SetByteBudget(opts.CacheBytes)
			}
			e.demand = s
		default:
			return nil, fmt.Errorf("core: unknown cache policy %q", opts.CachePolicy)
		}
	}
	e.pool = exec.NewPool(opts.FetchWorkers)
	if opts.Singleflight {
		e.flight = exec.NewGroup()
	}
	if opts.QoSPriority {
		if opts.MaxInflight < 1 {
			return nil, fmt.Errorf("core: QoSPriority requires MaxInflight > 0 (priority needs a bound to schedule against)")
		}
		e.adm = exec.NewPriorityController(opts.MaxInflight, opts.MaxQueue)
	} else {
		e.adm = exec.NewController(opts.MaxInflight, opts.MaxQueue)
	}
	e.limiter = exec.NewTenantLimiter(opts.TenantRate, opts.TenantBurst, opts.TenantMaxTracked)
	e.rcache = exec.NewResultCache(opts.ResultCacheTTL, opts.ResultCacheSlots)
	return e, nil
}

// Index returns the engine's underlying index.
func (e *Engine) Index() *tindex.Index { return e.ix }

// Cache returns the engine's preloaded cube cache, or nil when caching is
// disabled or a demand policy is active.
func (e *Engine) Cache() *cache.Cache { return e.cache }

// CacheMetrics returns the obs instruments of whichever cache policy is
// active, or nil when caching is disabled.
func (e *Engine) CacheMetrics() *cache.Metrics {
	if e.cache != nil {
		return e.cache.Metrics()
	}
	if e.demand != nil {
		return e.demand.Metrics()
	}
	return nil
}

// CacheStats returns hit/miss/eviction counters of the active cache; ok is
// false when caching is disabled.
func (e *Engine) CacheStats() (cache.Stats, bool) {
	if e.cache != nil {
		return e.cache.Stats(), true
	}
	if e.demand != nil {
		return e.demand.Stats(), true
	}
	return cache.Stats{}, false
}

// cacheGet probes the active cache, counting a hit or miss. For a period the
// live pipeline has republished, a demand-cache hit must be at least as fresh
// as the required epoch; a preload hit is refused outright and counted as the
// miss it is (the preload cache is read-only at query time, so it can never
// be refreshed — MarkLiveUpdate already invalidated the entry, this guards
// the refill-free window).
func (e *Engine) cacheGet(p temporal.Period) (*cube.Cube, bool) {
	req := e.requiredEpoch(p)
	if e.cache != nil {
		if req > 0 {
			e.cache.Metrics().Misses[p.Level].Inc()
			return nil, false
		}
		return e.cache.Get(p)
	}
	if e.demand != nil {
		if req > 0 {
			return e.demand.GetAtLeast(p, req)
		}
		return e.demand.Get(p)
	}
	return nil, false
}

// cacheContains reports residency in the active cache without touching the
// hit/miss counters or recency order.
func (e *Engine) cacheContains(p temporal.Period) bool {
	if e.cache != nil {
		return e.cache.Contains(p)
	}
	if e.demand != nil {
		return e.demand.Contains(p)
	}
	return false
}

// SetNetworkSizes installs a single per-country road-network size table used
// as the Percentage(*) denominator for every window (produced by
// crawl.NetworkSizes). It replaces any snapshot history.
func (e *Engine) SetNetworkSizes(sizes map[int]uint64) {
	e.mu.Lock()
	e.snapshots = e.snapshots[:0]
	e.mu.Unlock()
	e.AddNetworkSizeSnapshot(1<<30, sizes)
}

// AddNetworkSizeSnapshot records the network sizes as of a day. Percentage
// queries use the latest snapshot at or before the query window's end, so a
// two-year-old window is normalized by the network as it was then.
func (e *Engine) AddNetworkSizeSnapshot(asOf temporal.Day, sizes map[int]uint64) {
	cp := make(map[int]uint64, len(sizes))
	for k, v := range sizes {
		cp[k] = v
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	i := sort.Search(len(e.snapshots), func(i int) bool { return e.snapshots[i].asOf >= asOf })
	if i < len(e.snapshots) && e.snapshots[i].asOf == asOf {
		e.snapshots[i].sizes = cp
		return
	}
	e.snapshots = append(e.snapshots, sizeSnapshot{})
	copy(e.snapshots[i+1:], e.snapshots[i:])
	e.snapshots[i] = sizeSnapshot{asOf: asOf, sizes: cp}
}

// sizesAsOf returns the snapshot in effect on day d: the latest at or before
// d, or the earliest available when d predates them all. Callers hold e.mu.
func (e *Engine) sizesAsOf(d temporal.Day) map[int]uint64 {
	if len(e.snapshots) == 0 {
		return nil
	}
	i := sort.Search(len(e.snapshots), func(i int) bool { return e.snapshots[i].asOf > d })
	if i == 0 {
		return e.snapshots[0].sizes
	}
	return e.snapshots[i-1].sizes
}

// NetworkSize returns the latest stored road-network size of a country
// catalog value.
func (e *Engine) NetworkSize(country int) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.snapshots) == 0 {
		return 0
	}
	return e.snapshots[len(e.snapshots)-1].sizes[country]
}

// NetworkSizeAsOf returns the road-network size of a country in the snapshot
// covering day d.
func (e *Engine) NetworkSizeAsOf(country int, d temporal.Day) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sizesAsOf(d)[country]
}

// RefreshCache re-preloads the cache after index maintenance.
func (e *Engine) RefreshCache() error {
	if e.cache == nil {
		return nil
	}
	return e.cache.Preload(e.ix)
}

// maxLevel returns the highest level the optimizer may use.
func (e *Engine) maxLevel() temporal.Level {
	if !e.opts.LevelOptimization {
		return temporal.Daily
	}
	return temporal.Level(e.ix.Levels() - 1)
}

// clip restricts [from, to] to index coverage. ok is false when they do not
// intersect.
func (e *Engine) clip(from, to temporal.Day) (lo, hi temporal.Day, ok bool) {
	cLo, cHi, has := e.ix.Coverage()
	if !has {
		return 0, 0, false
	}
	if from > cHi || to < cLo {
		return 0, 0, false
	}
	if from < cLo {
		from = cLo
	}
	if to > cHi {
		to = cHi
	}
	return from, to, from <= to
}

// rowKey extends the cube group key with the optional date bucket.
type rowKey struct {
	k         cube.Key
	p         temporal.Period // zero Period (Daily,0 means day 0) — use valid flag
	hasPeriod bool
}

// Analyze executes an analysis query. When q.Trace is set the result carries
// a QueryTrace recording the executed plan, cache residency, page I/O, and
// stage timings.
func (e *Engine) Analyze(q Query) (*Result, error) {
	return e.AnalyzeContext(context.Background(), q)
}

// AnalyzeContext is Analyze under a context: the query first passes admission
// control (a full queue fails fast with exec.ErrRejected; a context that ends
// while queued returns its error), and cancellation mid-execution stops
// further cube fetches and returns ctx.Err(). Admission wait is excluded from
// the reported query latency.
func (e *Engine) AnalyzeContext(ctx context.Context, q Query) (*Result, error) {
	return e.analyzeAdmitted(ctx, q, nil)
}

// analyzeAdmitted is the shared body of AnalyzeContext and
// AnalyzePartitionContext: admission, timing, query metrics, and trace
// finalization around one analyze call. restrict is nil for whole-query
// execution (see partition.go for the restricted form).
func (e *Engine) analyzeAdmitted(ctx context.Context, q Query, restrict *restriction) (*Result, error) {
	// Per-tenant rate limit first: an over-budget tenant is shed before it
	// can touch the result cache or an admission slot.
	if err := e.limiter.Allow(exec.TenantFrom(ctx)); err != nil {
		return nil, err
	}
	// Result-cache probe before admission: identical-query repeats must not
	// queue behind the executions they would duplicate. The epoch is loaded
	// once here — it is both the hit-freshness floor and, after a miss, the
	// conservative stamp for the computed result (loaded before execution,
	// as in fetchRun).
	ckey, cacheable := e.resultCacheKey(q, restrict)
	var epoch uint64
	if cacheable {
		epoch = e.ix.Epoch()
		if v, ok := e.rcache.Get(ckey, epoch); ok {
			e.met.Queries.Inc()
			return cachedResult(v.(*Result)), nil
		}
	}
	release, err := e.adm.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	var tb *traceBuilder // nil (all methods no-op) unless tracing is on
	if q.Trace {
		tb = e.newTraceBuilder()
	}
	res, err := e.analyze(ctx, q, tb, restrict)
	if err != nil {
		e.met.QueryErrors.Inc()
		if errors.Is(err, ErrDegraded) {
			e.met.DegradedQueries.Inc()
		}
		return nil, err
	}
	e.met.Queries.Inc()
	res.Stats.ElapsedNanos = time.Since(start).Nanoseconds()
	e.met.QueryLatency.Observe(time.Duration(res.Stats.ElapsedNanos))
	tb.finish(e, res)
	if cacheable {
		e.storeResult(ckey, epoch, res)
	}
	return res, nil
}

// analyze is the Analyze body; the wrapper owns admission, timing, query
// metrics, and trace finalization. A non-nil restrict intersects the compiled
// country filter with a set of allowed catalog values and narrows the
// executed window (partition-restricted execution) — the query itself stays
// untouched, so Percentage denominators and their as-of snapshot day are the
// ones the whole query would use. An empty intersection short-circuits to an
// empty result.
func (e *Engine) analyze(ctx context.Context, q Query, tb *traceBuilder, restrict *restriction) (*Result, error) {
	if q.To < q.From {
		return nil, fmt.Errorf("core: query window [%s, %s] is inverted", q.From, q.To)
	}
	endStage := tb.stage("compile_filter")
	filter, err := CompileFilter(&q, e.reg)
	endStage()
	if err != nil {
		return nil, err
	}
	if restrict != nil {
		filter.Countries = restrictCountries(filter.Countries, restrict.countries)
		if len(filter.Countries) == 0 {
			return &Result{}, nil
		}
	}

	res := &Result{}
	lo, hi, ok := e.clip(q.From, q.To)
	if !ok {
		return res, nil
	}
	if restrict != nil && restrict.windowed {
		if restrict.lo > lo {
			lo = restrict.lo
		}
		if restrict.hi < hi {
			hi = restrict.hi
		}
		if lo > hi {
			return res, nil
		}
	}

	endStage = tb.stage("plan")
	buckets, err := e.planBuckets(q.GroupBy.Date, lo, hi)
	endStage()
	if err != nil {
		return nil, err
	}

	groups := make(map[rowKey]uint64)
	endStage = tb.stage("aggregate")
	// The aggregation is compiled once per query: filter masks are resolved
	// and the kernel shape dispatched here, not per cube.
	ap := cube.CompileAgg(e.ix.Schema(), filter, cubeGroupBy(q.GroupBy))
	err = e.aggregate(ctx, buckets, ap, groups, res, tb)
	endStage()
	if err != nil {
		return nil, err
	}

	endStage = tb.stage("build_rows")
	e.buildRows(res, groups, &q)
	endStage()
	return res, nil
}

// dateBucket is one time bucket of a date-grouped query: the labeling period
// and the day range it aggregates (clipped to the query window).
type dateBucket struct {
	p      temporal.Period
	lo, hi temporal.Day
}

// dateBuckets partitions [lo, hi] into buckets at the given level. Weekly
// buckets fold each month's trailing days (29-31) into that month's fourth
// week, so the bucketing is exhaustive.
func dateBuckets(lvl temporal.Level, lo, hi temporal.Day) []dateBucket {
	var out []dateBucket
	if lvl != temporal.Weekly {
		for _, p := range temporal.PeriodsBetween(lvl, lo, hi) {
			b := dateBucket{p: p, lo: p.Start(), hi: p.End()}
			if b.lo < lo {
				b.lo = lo
			}
			if b.hi > hi {
				b.hi = hi
			}
			out = append(out, b)
		}
		return out
	}
	for _, m := range temporal.PeriodsBetween(temporal.Monthly, lo, hi) {
		for i, w := range m.Children() {
			if i >= 4 {
				break // trailing days belong to week 4
			}
			b := dateBucket{p: w, lo: w.Start(), hi: w.End()}
			if i == 3 {
				b.hi = m.End() // fold trailing days into week 4
			}
			if b.hi < lo || b.lo > hi {
				continue
			}
			if b.lo < lo {
				b.lo = lo
			}
			if b.hi > hi {
				b.hi = hi
			}
			out = append(out, b)
		}
	}
	return out
}

// cacheView adapts the active cache for the planner; nil when caching is off.
func (e *Engine) cacheView() plan.CacheView {
	if e.cache != nil {
		return e.cache
	}
	if e.demand != nil {
		return e.demand
	}
	return nil
}

// bucketPlan is one date bucket's cover: the row-key label and the cubes the
// level optimizer chose for it, in chronological order.
type bucketPlan struct {
	bucket  rowKey
	periods []temporal.Period
}

// planBuckets plans every bucket of a query over the clipped window [lo, hi].
// A date-grouped query has one bucket per period at the requested
// granularity, each covered independently (a whole bucket the index holds is
// its own cube; partial edge buckets decompose into finer cubes); a query
// that does not group by date is the one-bucket case. Analyze and Explain
// both plan through here.
func (e *Engine) planBuckets(g Granularity, lo, hi temporal.Day) ([]bucketPlan, error) {
	cover := func(lo, hi temporal.Day, maxLevel temporal.Level) ([]temporal.Period, error) {
		pl, err := plan.Optimize(lo, hi, maxLevel, planAvail{e.ix}, e.cacheView())
		if err != nil {
			return nil, err
		}
		e.met.PlanPeriods.ObserveValue(float64(len(pl.Periods)))
		return pl.Periods, nil
	}
	if g == None {
		ps, err := cover(lo, hi, e.maxLevel())
		return []bucketPlan{{periods: ps}}, err
	}
	lvl := g.Level()
	buckets := dateBuckets(lvl, lo, hi)
	out := make([]bucketPlan, len(buckets))
	for i, b := range buckets {
		out[i].bucket = rowKey{p: b.p, hasPeriod: true}
		if b.lo == b.p.Start() && b.hi == b.p.End() && e.ix.Has(b.p) {
			out[i].periods = []temporal.Period{b.p}
			continue
		}
		ps, err := cover(b.lo, b.hi, e.maxLevelBelow(lvl))
		if err != nil {
			return nil, err
		}
		out[i].periods = ps
	}
	return out, nil
}

// maxLevelBelow caps the optimizer at strictly finer levels than lvl, so a
// date-grouped bucket never reads a cube coarser than its own granularity.
func (e *Engine) maxLevelBelow(lvl temporal.Level) temporal.Level {
	max := e.maxLevel()
	if lvl > temporal.Daily && lvl-1 < max {
		max = lvl - 1
	}
	return max
}

// resolveBudget bounds the decoded cube bytes one query holds between resolve
// and fold: a day-grouped query over years of history plans thousands of
// cubes, and resolving them all at once would pin gigabytes at paper scale.
// Plans are resolved in windows of this many bytes, and never fewer cubes
// than there are fetch workers, so large pages keep the pool busy. A window
// also bounds a run: adjacent pages coalesce within one window only.
const resolveBudget = 16 << 20

// aggregate resolves the planned periods to cubes, a bounded window at a
// time, and folds them into groups serially in plan order under each
// bucket's date key, so stats, metrics, and traces stay deterministic. The
// fold is serial, so one compiled aggregation (with its scratch buffers)
// serves every cube.
func (e *Engine) aggregate(ctx context.Context, buckets []bucketPlan, ap *cube.AggPlan,
	groups map[rowKey]uint64, res *Result, tb *traceBuilder) error {
	var periods []temporal.Period
	var keys []rowKey
	for _, b := range buckets {
		for _, p := range b.periods {
			periods = append(periods, p)
			keys = append(keys, b.bucket)
		}
	}
	window := max(resolveBudget/(8*e.ix.Schema().CellCount()), e.pool.Workers(), 1)
	scratch := make(map[cube.Key]uint64)
	for start := 0; start < len(periods); start += window {
		end := start + window
		if end > len(periods) {
			end = len(periods)
		}
		rs, err := e.resolve(ctx, periods[start:end])
		if err != nil {
			return err
		}
		for i, r := range rs {
			p, bucket := periods[start+i], keys[start+i]
			if r.err != nil {
				// Degraded mode: replan the unreadable cube from its
				// constituents. Serial — replans are rare.
				if !e.opts.DegradedFallback {
					return r.err
				}
				cb, err := e.fetchFallback(ctx, p, res)
				if err != nil {
					return err
				}
				r = resolved{cb: cb, fellBack: true}
			}
			res.Stats.CubesFetched++
			e.met.CubesRead[p.Level].Inc()
			tb.addPeriod(bucket, p, r.cached, r.fellBack)
			if r.cached {
				res.Stats.CacheHits++
			} else {
				res.Stats.DiskReads++
				if r.shared {
					res.Stats.SharedFetches++
				}
				tb.addPages(r.pages)
			}
			for k := range scratch {
				delete(scratch, k)
			}
			res.Total += r.cb.AggregatePlanInto(ap, scratch)
			for k, v := range scratch {
				rk := bucket
				rk.k = k
				groups[rk] += v
			}
		}
		e.release(rs)
	}
	return nil
}

// resolved is one period turned into a cube, plus how it was obtained,
// recorded for stats and the query trace. err is a storage failure the
// degraded-mode fallback may replan around; cb is nil exactly when it is set.
type resolved struct {
	cb       *cube.Cube
	err      error
	run      *runCubes // on the first slot of a run this query must leave
	pages    int       // store pages read for it (0 when cached or reconstructed)
	cached   bool      // served from the cube cache
	shared   bool      // disk read deduplicated onto another query's
	fellBack bool      // reconstructed from constituent cubes (degraded mode)
}

// resolve turns periods into cubes; it is the engine's only read path, used
// by every query shape and by the degraded-mode reconstruction. The cache is
// probed serially (hit accounting follows plan order); the misses are grouped
// into runs of pages adjacent on disk — hot pages and cold extents live in
// separate files, so a run never crosses tiers, and a lone page is a run of
// one — and each run is read with one I/O on the shared worker pool. A
// storage failure is recorded in its period's slot for the caller to replan
// around or report; anything else (cancellation, a period the index has no
// cube for) fails the call.
func (e *Engine) resolve(ctx context.Context, periods []temporal.Period) ([]resolved, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]resolved, len(periods))
	type miss struct {
		i, page int
		cold    bool
	}
	var misses []miss
	for i, p := range periods {
		if cb, ok := e.cacheGet(p); ok {
			out[i] = resolved{cb: cb, cached: true}
			continue
		}
		page, slots, cold, ok := e.ix.ExtentOf(p)
		if !ok {
			return nil, fmt.Errorf("core: %w %v", tindex.ErrNoCube, p)
		}
		out[i].pages = slots
		misses = append(misses, miss{i: i, page: page, cold: cold})
	}
	if len(misses) == 0 {
		return out, nil
	}
	sort.Slice(misses, func(a, b int) bool {
		if misses[a].cold != misses[b].cold {
			return !misses[a].cold // hot runs first; the order is arbitrary
		}
		return misses[a].page < misses[b].page
	})
	// Within a tier, adjacency means the next page starts where the previous
	// one ends: a stride of one fixed page in the hot store, the extent's
	// 4 KiB slots in the cold store.
	var runs [][]int
	var run []int
	for k, m := range misses {
		if k > 0 {
			prev := misses[k-1]
			if m.cold != prev.cold || m.page != prev.page+out[prev.i].pages {
				runs = append(runs, run)
				run = nil
			}
		}
		run = append(run, m.i)
	}
	runs = append(runs, run)
	err := e.pool.FanOut(ctx, len(runs), func(r int) error {
		return e.readRun(ctx, periods, runs[r], out)
	})
	return out, err
}

// readRun fills the slots of one run. A run that fails as a whole — a bad
// page somewhere in it, a transient fault, or a live publish or compaction
// that moved a page between the ExtentOf probe and the read (ErrNotAdjacent)
// — is retried page by page: healthy pages still resolve against a
// consistent directory, and only the actually broken ones keep their error.
func (e *Engine) readRun(ctx context.Context, periods []temporal.Period, run []int, out []resolved) error {
	ps := make([]temporal.Period, len(run))
	for j, i := range run {
		ps[j] = periods[i]
	}
	rc, shared, err := e.fetchRun(ctx, ps)
	if err == nil {
		for j, i := range run {
			out[i].cb, out[i].shared = rc.cubes[j], shared
		}
		if e.demand == nil {
			out[run[0]].run = rc
		}
		return nil
	}
	if !fallbackEligible(err) {
		return err
	}
	if len(run) == 1 {
		out[run[0]].err = err
		return nil
	}
	for _, i := range run {
		if err := e.readRun(ctx, periods, []int{i}, out); err != nil {
			return err
		}
	}
	return nil
}

// runCubes is the decoded result of one run read, plus the number of queries
// still folding it. With no demand cache to adopt them, a run's cubes belong
// to the queries that read them — the one that issued the read and any that
// joined it through the singleflight group — and return to the index's cube
// pool when the last of those has folded: allocating and zeroing a fresh
// cube per missed page costs more than reading the page does.
type runCubes struct {
	cubes []*cube.Cube
	users atomic.Int32
}

// join registers one more query on the run. False means the last user has
// already left and the cubes are back in the pool.
func (rc *runCubes) join() bool {
	for {
		n := rc.users.Load()
		if n <= 0 {
			return false
		}
		if rc.users.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release ends this query's use of the runs behind a folded window; the last
// user of a run recycles its cubes. A query that fails mid-fold skips this,
// which only leaves its cubes to the garbage collector.
func (e *Engine) release(rs []resolved) {
	for _, r := range rs {
		if r.run != nil && r.run.users.Add(-1) == 0 {
			for _, cb := range r.run.cubes {
				e.ix.ReleasePooled(cb)
			}
		}
	}
}

// fetchRun reads one run of page-adjacent periods from the index with a
// single I/O and offers the decoded cubes to the demand cache. A lone miss
// enters at the hot end; the members of a multi-page run enter at the COLD
// end (PutCold): a run is a scan, and inserting 30+ cold cubes per scan at
// the hot end would evict the recency working set the dashboard's warm
// queries live on — the same reason InnoDB gives bulk scans the old sublist
// instead of the head of the buffer pool. Cubes the cache adopted are never
// recycled (an evicted cube may still be mid-fold elsewhere; it falls to the
// garbage collector); without a demand cache the caller is one of the run's
// users and must release it.
//
// Concurrent queries needing the same run share one read through the
// singleflight group, keyed by the run's first and last periods (page
// adjacency makes that unambiguous). The leader runs detached from this
// query's cancellation (one run is bounded work, and waiters with live
// contexts still want the result); cancellation is enforced upstream by the
// pool not scheduling further runs.
func (e *Engine) fetchRun(ctx context.Context, ps []temporal.Period) (*runCubes, bool, error) {
	fetch := func(ctx context.Context) (*runCubes, error) {
		// The epoch stamp is loaded before the page read: the content read
		// is at least as fresh as the directory was at this point, so the
		// stamp is a valid lower bound (a conservative stamp only costs a
		// refetch).
		ep := e.ix.Epoch()
		cubes, err := e.ix.FetchRunPooledCtx(ctx, ps)
		if err != nil {
			return nil, err
		}
		rc := &runCubes{cubes: cubes}
		rc.users.Store(1)
		if e.demand != nil {
			for i, cb := range cubes {
				if len(ps) == 1 {
					e.demand.PutEpoch(ps[i], cb, ep)
				} else {
					e.demand.PutColdEpoch(ps[i], cb, ep)
				}
			}
		}
		return rc, nil
	}
	if e.flight == nil {
		rc, err := fetch(ctx)
		return rc, false, err
	}
	pk := func(p temporal.Period) string {
		return strconv.Itoa(int(p.Level)) + "/" + strconv.Itoa(p.Index)
	}
	key := pk(ps[0]) + "-" + pk(ps[len(ps)-1])
	if e.liveOn.Load() {
		// A flight started before a publish would hand all waiters the
		// pre-publish content; keying by the required epoch keeps a reader
		// that already demands fresher data off the stale flight.
		var req uint64
		for _, p := range ps {
			if r := e.requiredEpoch(p); r > req {
				req = r
			}
		}
		if req > 0 {
			key += "@" + strconv.FormatUint(req, 10)
		}
	}
	lctx := context.WithoutCancel(ctx)
	for {
		v, shared, err := e.flight.Do(key, func() (any, error) {
			return fetch(lctx)
		})
		if err != nil {
			return nil, false, err
		}
		// A waiter joins the leader's run — unless the leader has already
		// folded and recycled it, in which case the read is simply repeated.
		if rc := v.(*runCubes); !shared || e.demand != nil || rc.join() {
			return rc, shared, nil
		}
	}
}

// buildRows converts the group map into named, sorted rows, applying the
// percentage transform when requested.
func (e *Engine) buildRows(res *Result, groups map[rowKey]uint64, q *Query) {
	rows := make([]Row, 0, len(groups))
	for rk, count := range groups {
		r := Row{Count: count}
		if rk.k.Element >= 0 {
			r.ElementType = osm.ElementType(rk.k.Element).String()
		}
		if rk.k.Country >= 0 {
			r.Country = e.reg.Name(int(rk.k.Country))
		}
		if rk.k.RoadType >= 0 {
			r.RoadType = roads.Name(int(rk.k.RoadType))
		}
		if rk.k.Update >= 0 {
			r.UpdateType = update.Type(rk.k.Update).String()
		}
		if rk.hasPeriod {
			r.Period = rk.p.String()
		}
		if q.Percentage {
			r.Percentage = e.percentage(count, rk, q)
		}
		rows = append(rows, r)
	}
	sortRows(rows)
	res.Rows = rows
}

// sortRows orders rows by period, count descending, then dimension names.
func sortRows(rows []Row) {
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Period != rows[b].Period {
			return rows[a].Period < rows[b].Period
		}
		if rows[a].Count != rows[b].Count {
			return rows[a].Count > rows[b].Count
		}
		if rows[a].Country != rows[b].Country {
			return rows[a].Country < rows[b].Country
		}
		if rows[a].ElementType != rows[b].ElementType {
			return rows[a].ElementType < rows[b].ElementType
		}
		if rows[a].RoadType != rows[b].RoadType {
			return rows[a].RoadType < rows[b].RoadType
		}
		return rows[a].UpdateType < rows[b].UpdateType
	})
}

// percentage computes count as a percentage of the road network size of the
// row's country (or of the filtered countries, or the whole world), using
// the size snapshot in effect at the query window's end (or at the row's
// bucket end for date-grouped queries).
func (e *Engine) percentage(count uint64, rk rowKey, q *Query) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	asOf := q.To
	if rk.hasPeriod {
		asOf = rk.p.End()
	}
	sizes := e.sizesAsOf(asOf)
	if sizes == nil {
		return 0
	}
	var denom uint64
	switch {
	case rk.k.Country >= 0:
		denom = sizes[int(rk.k.Country)]
	case q.Countries != nil:
		for _, n := range q.Countries {
			if v, ok := e.reg.ByName(n); ok {
				denom += sizes[v]
			}
		}
	default:
		denom = sizes[e.reg.WorldValue()]
	}
	if denom == 0 {
		return 0
	}
	return float64(count) / float64(denom) * 100
}
