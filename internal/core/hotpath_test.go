package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rased/internal/cache"
	"rased/internal/pagestore"
	"rased/internal/temporal"
	"rased/internal/tindex"
)

// shardedOptions is the default configuration on the demand-filled cache.
func shardedOptions(slots int) Options {
	o := DefaultOptions()
	o.CacheSlots = slots
	o.CachePolicy = "sharded"
	return o
}

// TestHotpathModesAgree runs the engine's one read path under every
// surviving configuration — cache policy × level optimizer × fetch workers —
// against the fixture's brute-force recount, cold and then warm: the
// configurations may differ only in I/O, never in rows.
func TestHotpathModesAgree(t *testing.T) {
	f := getFixture(t)
	queries := []Query{
		{From: f.lo, To: f.hi},
		{From: f.lo, To: f.hi, GroupBy: GroupBy{Country: true}},
		{From: f.lo + 10, To: f.hi - 5, GroupBy: GroupBy{Country: true, UpdateType: true}},
		{From: f.lo, To: f.hi, UpdateTypes: []string{"create", "geometry"}, GroupBy: GroupBy{RoadType: true}},
		{From: f.lo + 3, To: f.hi, GroupBy: GroupBy{Date: ByWeek, Country: true}},
	}
	caches := map[string]func(*Options){
		"preload": func(o *Options) { o.CachePolicy = "preload" },
		"sharded": func(o *Options) { o.CachePolicy = "sharded"; o.CacheSlots = 64 },
		"nocache": func(o *Options) { o.CacheSlots = 0 },
	}
	for cname, setCache := range caches {
		for _, levelOpt := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				o := DefaultOptions()
				setCache(&o)
				o.LevelOptimization = levelOpt
				o.FetchWorkers = workers
				e := newEngine(t, f, o)
				t.Run(fmt.Sprintf("%s/levelopt=%v/workers=%d", cname, levelOpt, workers), func(t *testing.T) {
					for _, q := range queries {
						checkAgainstBruteForce(t, f, e, q) // cold
						checkAgainstBruteForce(t, f, e, q) // warm (demand cache filled)
					}
				})
			}
		}
	}
	for _, policy := range []string{"lru", "bogus"} {
		o := DefaultOptions()
		o.CachePolicy = policy
		if _, err := NewEngine(f.ix, o); err == nil {
			t.Errorf("cache policy %q should be rejected", policy)
		}
	}
}

// countingPager counts the read calls and the pages they cover.
type countingPager struct {
	pagestore.Pager
	calls, pages atomic.Int64
}

func (c *countingPager) ReadPage(id int, buf []byte) error {
	return c.ReadPageCtx(context.Background(), id, buf)
}

func (c *countingPager) ReadPageCtx(ctx context.Context, id int, buf []byte) error {
	return c.ReadPagesCtx(ctx, id, 1, buf)
}

func (c *countingPager) ReadPagesCtx(ctx context.Context, id, n int, buf []byte) error {
	c.calls.Add(1)
	c.pages.Add(int64(n))
	return c.Pager.ReadPagesCtx(ctx, id, n, buf)
}

// countedIndex is fbIndex behind a countingPager, counters zeroed after the
// build.
func countedIndex(t *testing.T, days int) (*tindex.Index, *countingPager) {
	var cp *countingPager
	ix := fbIndex(t, days, tindex.WithStoreWrapper(func(p pagestore.Pager) pagestore.Pager {
		cp = &countingPager{Pager: p}
		return cp
	}))
	cp.calls.Store(0)
	cp.pages.Store(0)
	return ix, cp
}

// TestHotpathDateGroupedCoalesces: a date-grouped query resolves all its
// buckets in one call, so the day pages under its partial buckets (a month's
// fourth week carries days 22..31) coalesce into runs — fewer read calls than
// pages, where bucket-at-a-time execution issued one call per page.
func TestHotpathDateGroupedCoalesces(t *testing.T) {
	ix, cp := countedIndex(t, 90) // Jan..Mar 2021: twelve week buckets
	e := fbEngine(t, ix, Options{LevelOptimization: true, FetchWorkers: 4, Singleflight: true})
	lo := temporal.NewDay(2021, time.January, 1)
	res, err := e.Analyze(Query{From: lo, To: lo + 89, GroupBy: GroupBy{Date: ByWeek}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 week buckets", len(res.Rows))
	}
	var want uint64
	for d := lo; d < lo+90; d++ {
		want += fbDayCube(ix.Schema(), d).Total()
	}
	if res.Total != want {
		t.Fatalf("total = %d, day cubes sum to %d", res.Total, want)
	}
	calls, pages := cp.calls.Load(), cp.pages.Load()
	if pages != int64(res.Stats.DiskReads) {
		t.Errorf("pager saw %d pages, stats say %d disk reads", pages, res.Stats.DiskReads)
	}
	if calls >= pages {
		t.Errorf("%d read calls for %d pages: adjacent day pages were not coalesced", calls, pages)
	}
}

// TestHotpathReconstructReadsOneRun: rebuilding a quarantined week resolves
// its seven day cubes through the same read path as a query, so their
// adjacent pages cost one read — and the sum is the lost rollup, bit for bit.
func TestHotpathReconstructReadsOneRun(t *testing.T) {
	ix, cp := countedIndex(t, 40)
	e := fbEngine(t, ix, Options{LevelOptimization: true, DegradedFallback: true})
	lo := temporal.NewDay(2021, time.January, 1)
	week, _ := temporal.WeekPeriod(lo)
	orig, err := ix.Fetch(week)
	if err != nil {
		t.Fatal(err)
	}
	fbCorrupt(t, ix, week)
	if _, err := e.Analyze(Query{From: lo, To: lo + 6}); err != nil {
		t.Fatalf("query over the corrupt week must replan: %v", err)
	}
	if !ix.Quarantined(week) {
		t.Fatal("corrupt week not quarantined")
	}
	cp.calls.Store(0)
	cp.pages.Store(0)
	var res Result
	got, err := e.fetchFallback(context.Background(), week, &res)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(orig) {
		t.Fatal("reconstructed week differs from the stored rollup")
	}
	if calls, pages := cp.calls.Load(), cp.pages.Load(); calls != 1 || pages != 7 {
		t.Errorf("reconstruct issued %d read calls for %d pages, want 1 call for 7", calls, pages)
	}
}

func TestHotpathDemandCacheWarms(t *testing.T) {
	f := getFixture(t)
	// Run cubes enter at the cold end (PutCold) but must still serve the
	// identical repeat query from memory once admitted.
	e := newEngine(t, f, shardedOptions(256))
	q := Query{From: f.lo, To: f.hi, GroupBy: GroupBy{Country: true}}

	cold, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.DiskReads == 0 {
		t.Fatal("cold query on a demand cache should read from disk")
	}
	warm, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != warm.Stats.CubesFetched {
		t.Errorf("warm query: hits %d of %d fetches, want all",
			warm.Stats.CacheHits, warm.Stats.CubesFetched)
	}
	if warm.Stats.DiskReads != 0 {
		t.Errorf("warm query read %d pages from disk", warm.Stats.DiskReads)
	}
	st, ok := e.CacheStats()
	if !ok {
		t.Fatal("CacheStats should report a demand cache")
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache stats = %+v, want both hits and misses", st)
	}
	if e.CacheMetrics() == nil {
		t.Error("CacheMetrics should be non-nil with a demand cache")
	}
	if e.Cache() != nil {
		t.Error("preload accessor should be nil under a demand policy")
	}
}

func TestHotpathCoalescedIO(t *testing.T) {
	// A cold flat plan over consecutive daily pages must issue multi-page
	// reads: the store's coalesced counter moves.
	f := getFixture(t)
	o := shardedOptions(128)
	o.LevelOptimization = false
	e := newEngine(t, f, o)
	before := f.ix.Store().Metrics().CoalescedReads.Value()
	if _, err := e.Analyze(Query{From: f.lo, To: f.hi}); err != nil {
		t.Fatal(err)
	}
	if got := f.ix.Store().Metrics().CoalescedReads.Value() - before; got == 0 {
		t.Error("flat cold scan should coalesce adjacent daily pages")
	}
	// Scan resistance: run cubes are admitted at the cold end, so a flat scan
	// wider than the daily budget (70 days vs ~51 slots) cannot be fully
	// cached — the repeat scan still reads from disk — yet the cold entries
	// must evict each other rather than flushing the rest of the cache.
	second, err := e.Analyze(Query{From: f.lo, To: f.hi})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.DiskReads == 0 {
		t.Error("repeated over-budget scan should still read from disk")
	}
	if second.Stats.CacheHits == 0 {
		t.Error("repeated scan should hit the cold-admitted entries that survived")
	}
}

func TestHotpathConcurrent(t *testing.T) {
	// Hammer one engine from many goroutines (meaningful under -race): mixed
	// hot and cold windows, every row checked against a serially computed
	// baseline. Two configurations: a small demand cache under constant
	// eviction, and no cache at all, where every fetch reads from disk,
	// overlapping queries share runs through the singleflight group, and
	// the last query to fold a run recycles its cubes — a cube recycled
	// while another query still folds it would show up as a wrong row.
	f := getFixture(t)
	baseline := newEngine(t, f, DefaultOptions())
	queries := []Query{
		{From: f.lo, To: f.hi, GroupBy: GroupBy{Country: true}},
		{From: f.hi - 6, To: f.hi},
		{From: f.lo, To: f.lo + 13, GroupBy: GroupBy{UpdateType: true}},
		{From: f.lo + 20, To: f.hi - 20, GroupBy: GroupBy{ElementType: true}},
		{From: f.lo, To: f.hi, GroupBy: GroupBy{Date: ByDay}},
	}
	wants := make([]*Result, len(queries))
	for i, q := range queries {
		w, err := baseline.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	noCache := DefaultOptions()
	noCache.CacheSlots = 0
	for _, tc := range []struct {
		name  string
		opts  Options
		iters int
	}{{"sharded", shardedOptions(64), 30}, {"nocache", noCache, 6}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, f, tc.opts)
			const workers = 8
			iters := tc.iters
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for it := 0; it < iters; it++ {
						qi := (w + it) % len(queries)
						got, err := e.Analyze(queries[qi])
						if err != nil {
							errs <- err
							return
						}
						if got.Total != wants[qi].Total || !reflect.DeepEqual(got.Rows, wants[qi].Rows) {
							errs <- fmt.Errorf("concurrent result mismatch on query %d", qi)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if st, ok := e.CacheStats(); ok && st.Hits == 0 {
				t.Errorf("concurrent run should produce cache hits: %+v", st)
			}
		})
	}
}

// TestHotpathAllocationRespected pins that the demand policies still honor
// the (α,β,γ,θ) slot split: a sharded cache sized like the preload cache
// exposes the same per-level budgets.
func TestHotpathAllocationRespected(t *testing.T) {
	s, err := cache.NewSharded(512, cache.DefaultAllocation, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := cache.DefaultAllocation.SlotsFor(512)
	got := 0
	for _, n := range want {
		got += n
	}
	if s.Slots() != 512 || got != 512 {
		t.Errorf("slot split: cache %d, alloc sum %d, want 512", s.Slots(), got)
	}
}
