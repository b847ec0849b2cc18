package core

// Result-cache correctness at the engine level: the epoch-stamped cache must
// never serve a row from a retired epoch while the live pipeline folds new
// images underneath it (run with -race via make ci), entries must die at
// TTL, and failed executions must never be cached.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rased/internal/cache"
	"rased/internal/cube"
	"rased/internal/exec"
	"rased/internal/temporal"
	"rased/internal/tindex"
)

// liveIndex builds a private small index (the shared fixture must not be
// mutated by epoch publishes) with days days of a one-cell-per-day cube, in
// live mode.
func liveIndex(t *testing.T, days int) *tindex.Index {
	t.Helper()
	ix, err := tindex.Create(t.TempDir(), cube.ScaledSchema(5, 5), temporal.NumLevels)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	lo := temporal.NewDay(2021, time.March, 1)
	for i := 0; i < days; i++ {
		cb := cube.New(ix.Schema())
		cb.Add(0, 0, 0, 0, 1)
		if err := ix.AppendDay(lo+temporal.Day(i), cb); err != nil {
			t.Fatal(err)
		}
	}
	ix.EnableLive()
	return ix
}

// TestResultCacheEpochMonotoneUnderFolds is the stale-epoch regression test:
// concurrent readers re-issue one identical live query (exactly what the
// result cache is keyed to serve) while a publisher folds 150 epochs into
// the hot day. Every reader's observed total must be non-decreasing — a
// single backwards step means the cache served a result computed against a
// retired epoch — and the final answer must account for every fold.
func TestResultCacheEpochMonotoneUnderFolds(t *testing.T) {
	const days, folds = 10, 150
	ix := liveIndex(t, days)
	eng, err := NewEngine(ix, Options{
		ResultCacheTTL:   time.Second,
		ResultCacheSlots: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := ix.Coverage()
	hot := hi + 1
	publish := func(c *cube.Cube) {
		t.Helper()
		ep, err := ix.PublishEpoch(map[temporal.Period]*cube.Cube{temporal.DayPeriod(hot): c.Clone()})
		if err != nil {
			t.Error(err)
			return
		}
		eng.MarkLiveUpdate(ep, temporal.DayPeriod(hot))
	}
	hotCube := cube.New(ix.Schema())
	hotCube.Add(0, 0, 0, 0, 1)
	publish(hotCube)

	q := Query{From: lo, To: hot}
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := eng.AnalyzeContext(ctx, q)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if res.Total < last {
					t.Errorf("reader %d: total went backwards: %d after %d (stale-epoch cache hit)",
						r, res.Total, last)
					return
				}
				last = res.Total
			}
		}(r)
	}
	for i := 0; i < folds; i++ {
		hotCube.Add(0, 0, 0, 0, 1)
		publish(hotCube)
	}
	close(done)
	wg.Wait()

	res, err := eng.AnalyzeContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(days + 1 + folds); res.Total != want {
		t.Fatalf("final total = %d, want %d (some fold was lost)", res.Total, want)
	}
}

// TestPreloadRefusalCountsAsMiss: the read-only preload cache refuses to
// serve a period the live pipeline has republished, and that refusal is a
// cache miss like any other — rased_cache_misses_total must see it, or a
// -live deployment under-reports its misses.
func TestPreloadRefusalCountsAsMiss(t *testing.T) {
	const days = 10
	ix := liveIndex(t, days)
	eng, err := NewEngine(ix, Options{CacheSlots: 64, Allocation: cache.Allocation{Alpha: 1}})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := ix.Coverage()
	q := Query{From: lo, To: hi}
	if res, err := eng.Analyze(q); err != nil || res.Stats.CacheHits != days {
		t.Fatalf("preloaded window: hits %d of %d, err %v", res.Stats.CacheHits, days, err)
	}
	before, _ := eng.CacheStats()

	fresh := cube.New(ix.Schema())
	fresh.Add(0, 0, 0, 0, 5)
	ep, err := ix.PublishEpoch(map[temporal.Period]*cube.Cube{temporal.DayPeriod(hi): fresh})
	if err != nil {
		t.Fatal(err)
	}
	eng.MarkLiveUpdate(ep, temporal.DayPeriod(hi))

	res, err := eng.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(days - 1 + 5); res.Total != want {
		t.Fatalf("total after republish = %d, want %d", res.Total, want)
	}
	if res.Stats.DiskReads != 1 {
		t.Fatalf("disk reads = %d, want 1 (the republished day)", res.Stats.DiskReads)
	}
	after, _ := eng.CacheStats()
	if got := after.Misses - before.Misses; got != 1 {
		t.Fatalf("cache misses advanced by %d, want 1 for the refused period", got)
	}
}

// TestResultCacheHitAndTTL: an identical repeat is served from the cache
// (and marked as such), and the entry dies after the TTL.
func TestResultCacheHitAndTTL(t *testing.T) {
	ix := liveIndex(t, 5)
	eng, err := NewEngine(ix, Options{
		ResultCacheTTL:   30 * time.Millisecond,
		ResultCacheSlots: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := ix.Coverage()
	q := Query{From: lo, To: hi, GroupBy: GroupBy{Country: true}}
	first, err := eng.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ResultCacheHit {
		t.Fatal("first execution marked as a cache hit")
	}
	second, err := eng.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.ResultCacheHit {
		t.Fatal("identical repeat missed the result cache")
	}
	if second.Total != first.Total || len(second.Rows) != len(first.Rows) {
		t.Fatalf("cached answer differs: %d/%d rows, %d/%d total",
			len(second.Rows), len(first.Rows), second.Total, first.Total)
	}
	// Served rows are caller-owned copies: mutating them must not poison the
	// cached image (the serving tier sorts and truncates in place).
	if len(second.Rows) > 0 {
		second.Rows[0].Count = 1 << 40
	}
	third, err := eng.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Stats.ResultCacheHit || third.Total != first.Total {
		t.Fatal("cache entry corrupted by caller mutation")
	}
	for _, r := range third.Rows {
		if r.Count == 1<<40 {
			t.Fatal("caller mutation leaked into the cached rows")
		}
	}
	time.Sleep(60 * time.Millisecond)
	fourth, err := eng.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Stats.ResultCacheHit {
		t.Fatal("cache served an entry past its TTL")
	}
}

// TestResultCacheNeverCachesFailures: a failing execution must not leave a
// cache entry — a transient failure pinned for the TTL would turn one error
// into many.
func TestResultCacheNeverCachesFailures(t *testing.T) {
	ix := liveIndex(t, 5)
	eng, err := NewEngine(ix, Options{
		ResultCacheTTL:   time.Second,
		ResultCacheSlots: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := ix.Coverage()
	bad := Query{From: lo, To: hi, Countries: []string{"no-such-country"}}
	for i := 0; i < 2; i++ {
		if _, err := eng.Analyze(bad); err == nil {
			t.Fatal("query naming an unknown country succeeded")
		}
	}
	met := eng.ResultCacheMetrics()
	if hits := met.Hits.Value(); hits != 0 {
		t.Fatalf("failing query produced %d cache hits", hits)
	}
	if misses := met.Misses.Value(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (both failing executions probed)", misses)
	}
}

// TestResultCacheKeyedByQueryIdentity: distinct queries must not collide,
// and filter order must not split identical queries into distinct entries.
func TestResultCacheKeyedByQueryIdentity(t *testing.T) {
	ix := liveIndex(t, 5)
	eng, err := NewEngine(ix, Options{
		ResultCacheTTL:   time.Second,
		ResultCacheSlots: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := ix.Coverage()
	countries := ix.Schema().Countries
	a := Query{From: lo, To: hi, Countries: []string{countries[0], countries[1]}}
	b := Query{From: lo, To: hi, Countries: []string{countries[1], countries[0]}}
	if _, err := eng.Analyze(a); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Analyze(b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ResultCacheHit {
		t.Fatal("filter order split one query identity into two cache entries")
	}
	narrower := Query{From: lo, To: hi - 1, Countries: []string{countries[0], countries[1]}}
	res2, err := eng.Analyze(narrower)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ResultCacheHit {
		t.Fatal("different window served from another query's cache entry")
	}
}

// TestQoSTenantThrottleSheds: the engine-level limiter sheds an over-budget
// tenant with exec.ErrThrottled (and a retry hint) while other tenants stay
// unaffected.
func TestQoSTenantThrottleSheds(t *testing.T) {
	ix := liveIndex(t, 5)
	eng, err := NewEngine(ix, Options{TenantRate: 0.001, TenantBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := ix.Coverage()
	q := Query{From: lo, To: hi}
	hot := exec.WithTenant(context.Background(), "hog")
	var throttled bool
	for i := 0; i < 5; i++ {
		if _, err := eng.AnalyzeContext(hot, q); err != nil {
			if !errors.Is(err, exec.ErrThrottled) {
				t.Fatalf("unexpected error type: %v", err)
			}
			if exec.RetryAfter(err, 0) <= 0 {
				t.Fatal("throttled error carries no retry hint")
			}
			throttled = true
			break
		}
	}
	if !throttled {
		t.Fatal("hog tenant burst through a 2-query budget unshed")
	}
	other := exec.WithTenant(context.Background(), "quiet")
	if _, err := eng.AnalyzeContext(other, q); err != nil {
		t.Fatalf("unrelated tenant shed alongside the hog: %v", err)
	}
}
