package core

// Degraded-mode execution tests: replanning an unreadable rollup cube from
// its constituents must be bit-identical to the lost cube (rollups ARE sums
// of their children), leaf failures must surface the typed ErrDegraded, and
// the quarantine left behind must steer the next plan around the bad page.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/faultstore"
	"rased/internal/pagestore"
	"rased/internal/temporal"
	"rased/internal/tindex"
)

func fbSchema() *cube.Schema { return cube.ScaledSchema(10, 6) }

func fbDayCube(s *cube.Schema, d temporal.Day) *cube.Cube {
	cb := cube.New(s)
	rng := rand.New(rand.NewSource(int64(d)))
	de, dc, dr, du := s.Dims()
	for i := 0; i < 3+int(d)%5; i++ {
		cb.Add(rng.Intn(de), rng.Intn(dc), rng.Intn(dr), rng.Intn(du), 1)
	}
	return cb
}

// fbIndex builds a dedicated small index (the shared fixture must stay
// pristine — these tests corrupt pages).
func fbIndex(t *testing.T, days int, opts ...tindex.Option) *tindex.Index {
	t.Helper()
	ix, err := tindex.Create(t.TempDir(), fbSchema(), 4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	lo := temporal.NewDay(2021, time.January, 1)
	for i := 0; i < days; i++ {
		d := lo + temporal.Day(i)
		if err := ix.AppendDay(d, fbDayCube(ix.Schema(), d)); err != nil {
			t.Fatalf("append %v: %v", d, err)
		}
	}
	return ix
}

func fbEngine(t *testing.T, ix *tindex.Index, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(ix, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fbCorrupt flips one payload byte of period p's page on disk, so the next
// fetch fails its checksum.
func fbCorrupt(t *testing.T, ix *tindex.Index, p temporal.Period) {
	t.Helper()
	page, ok := ix.PageOf(p)
	if !ok {
		t.Fatalf("no page for %v", p)
	}
	buf := make([]byte, ix.Store().PageSize())
	if err := ix.Store().ReadPage(page, buf); err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0xFF
	if err := ix.Store().WritePage(page, buf); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackReconstructionPerLevel is the table-driven replan check: for
// every rollup level, summing the constituent cubes must reproduce the stored
// rollup exactly (cube.Equal, not approximately).
func TestFallbackReconstructionPerLevel(t *testing.T) {
	ix := fbIndex(t, 400) // covers all of 2021, so the yearly rollup exists
	e := fbEngine(t, ix, Options{LevelOptimization: true, DegradedFallback: true})
	lo := temporal.NewDay(2021, time.January, 1)
	week, ok := temporal.WeekPeriod(lo)
	if !ok {
		t.Fatal("first day of month must open a week")
	}
	cases := []struct {
		name string
		p    temporal.Period
	}{
		{"year_from_months", temporal.YearPeriod(lo)},
		{"month_from_weeks_and_days", temporal.MonthPeriod(lo)},
		{"week_from_days", week},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := ix.Fetch(tc.p)
			if err != nil {
				t.Fatalf("fetch stored rollup %v: %v", tc.p, err)
			}
			var res Result
			got, err := e.fetchFallback(context.Background(), tc.p, &res)
			if err != nil {
				t.Fatalf("fetchFallback(%v): %v", tc.p, err)
			}
			if !got.Equal(orig) {
				t.Fatalf("reconstruction of %v differs from the stored rollup", tc.p)
			}
			if res.Stats.ReplannedPeriods != 1 {
				t.Fatalf("ReplannedPeriods = %d, want 1", res.Stats.ReplannedPeriods)
			}
			if res.Stats.FallbackCubes != len(tc.p.Children()) {
				t.Fatalf("FallbackCubes = %d, want %d constituents", res.Stats.FallbackCubes, len(tc.p.Children()))
			}
		})
	}
	// A daily cube is a leaf: nothing finer exists to substitute.
	var res Result
	if _, err := e.fetchFallback(context.Background(), temporal.DayPeriod(lo), &res); !errors.Is(err, ErrDegraded) {
		t.Fatalf("daily fallback must be ErrDegraded, got %v", err)
	}
}

func TestAnalyzeReplansAroundCorruptMonth(t *testing.T) {
	ix := fbIndex(t, 70) // Jan + Feb 2021 complete, plus 11 days of March
	e := fbEngine(t, ix, Options{LevelOptimization: true, DegradedFallback: true})
	lo := temporal.NewDay(2021, time.January, 1)
	q := Query{From: lo, To: lo + 69}
	oracle, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}

	month := temporal.MonthPeriod(lo)
	fbCorrupt(t, ix, month)
	res, err := e.Analyze(q)
	if err != nil {
		t.Fatalf("query over a corrupt monthly cube must replan, not fail: %v", err)
	}
	if res.Total != oracle.Total || !reflect.DeepEqual(res.Rows, oracle.Rows) {
		t.Fatalf("degraded answer differs from oracle: total %d vs %d", res.Total, oracle.Total)
	}
	if res.Stats.ReplannedPeriods != 1 {
		t.Fatalf("ReplannedPeriods = %d, want 1", res.Stats.ReplannedPeriods)
	}
	// January = 4 fixed weeks + trailing days 29..31.
	if res.Stats.FallbackCubes != 7 {
		t.Fatalf("FallbackCubes = %d, want 7", res.Stats.FallbackCubes)
	}
	if got := e.Metrics().FallbackReplans.Value(); got != 1 {
		t.Fatalf("rased_fallback_replans_total = %d, want 1", got)
	}
	h := e.Health()
	if !h.Degraded || h.QuarantinedPages != 1 {
		t.Fatalf("health after replan = %+v, want degraded with 1 quarantined page", h)
	}

	// The failed fetch quarantined the page, so the next plan routes around
	// it up front: exact answer again, no fallback pass this time.
	res2, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Total != oracle.Total {
		t.Fatalf("replanned total = %d, oracle %d", res2.Total, oracle.Total)
	}
	if res2.Stats.ReplannedPeriods != 0 {
		t.Fatalf("second query still fell back (%d replans); planner should route around quarantine", res2.Stats.ReplannedPeriods)
	}
}

// TestAnalyzeRecursiveFallback corrupts a monthly cube AND one of its weekly
// constituents: reconstruction must recurse through the bad week down to its
// seven dailies and still produce the exact answer.
func TestAnalyzeRecursiveFallback(t *testing.T) {
	ix := fbIndex(t, 70)
	e := fbEngine(t, ix, Options{LevelOptimization: true, DegradedFallback: true})
	lo := temporal.NewDay(2021, time.January, 1)
	q := Query{From: lo, To: lo + 69}
	oracle, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}

	month := temporal.MonthPeriod(lo)
	week, _ := temporal.WeekPeriod(lo)
	fbCorrupt(t, ix, month)
	fbCorrupt(t, ix, week)
	res, err := e.Analyze(q)
	if err != nil {
		t.Fatalf("recursive fallback failed: %v", err)
	}
	if res.Total != oracle.Total || !reflect.DeepEqual(res.Rows, oracle.Rows) {
		t.Fatalf("recursive degraded answer differs from oracle: total %d vs %d", res.Total, oracle.Total)
	}
	if res.Stats.ReplannedPeriods != 1 {
		t.Fatalf("ReplannedPeriods = %d, want 1 (recursion is not a second replan)", res.Stats.ReplannedPeriods)
	}
	// 3 healthy weeks + 3 trailing days + the bad week's 7 dailies.
	if res.Stats.FallbackCubes != 13 {
		t.Fatalf("FallbackCubes = %d, want 13", res.Stats.FallbackCubes)
	}
}

func TestAnalyzeLeafFailureDegradesTyped(t *testing.T) {
	ix := fbIndex(t, 10)
	e := fbEngine(t, ix, Options{LevelOptimization: true, DegradedFallback: true})
	lo := temporal.NewDay(2021, time.January, 1)
	// A 3-day window is answered from dailies; the middle one is destroyed.
	fbCorrupt(t, ix, temporal.DayPeriod(lo+2))
	_, err := e.Analyze(Query{From: lo + 1, To: lo + 3})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("unreadable leaf day must fail typed ErrDegraded, got %v", err)
	}
	if got := e.Metrics().DegradedQueries.Value(); got != 1 {
		t.Fatalf("rased_degraded_queries_total = %d, want 1", got)
	}
	if !e.Health().Degraded {
		t.Fatal("health must report degraded after a leaf quarantine")
	}
}

func TestAnalyzeFallbackDisabled(t *testing.T) {
	ix := fbIndex(t, 70)
	e := fbEngine(t, ix, Options{LevelOptimization: true})
	lo := temporal.NewDay(2021, time.January, 1)
	fbCorrupt(t, ix, temporal.MonthPeriod(lo))
	_, err := e.Analyze(Query{From: lo, To: lo + 69})
	if !errors.Is(err, tindex.ErrCorruptPage) {
		t.Fatalf("with fallback off, corruption must fail the query typed, got %v", err)
	}
}

// TestAnalyzeFallbackOnInjectedPermanentError drives the fallback from a
// store-level read failure (dead sector) rather than a checksum mismatch:
// no quarantine is involved, so every query replans — and every answer is
// still exact.
func TestAnalyzeFallbackOnInjectedPermanentError(t *testing.T) {
	var fs *faultstore.Store
	ix := fbIndex(t, 70, tindex.WithStoreWrapper(func(p pagestore.Pager) pagestore.Pager {
		fs = faultstore.New(p, 7)
		return fs
	}))
	e := fbEngine(t, ix, Options{
		LevelOptimization: true,
		DegradedFallback:  true,
		FetchWorkers:      4,
	})
	lo := temporal.NewDay(2021, time.January, 1)
	q := Query{From: lo, To: lo + 69}
	oracle, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}

	page, ok := ix.PageOf(temporal.MonthPeriod(lo))
	if !ok {
		t.Fatal("no page for January")
	}
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindPermanent, Page: page})
	for i := 0; i < 2; i++ {
		res, err := e.Analyze(q)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Total != oracle.Total || !reflect.DeepEqual(res.Rows, oracle.Rows) {
			t.Fatalf("run %d: degraded answer differs from oracle", i)
		}
		if res.Stats.ReplannedPeriods != 1 {
			t.Fatalf("run %d: ReplannedPeriods = %d, want 1 (dead sector is not quarantined)", i, res.Stats.ReplannedPeriods)
		}
	}
}

// TestAnalyzeCoalescedRunSplitsOnTransient: a transient failure of a whole
// coalesced read must not fail the query — the run is refetched per page, the
// healthy members recover, and no fallback is needed.
func TestAnalyzeCoalescedRunSplitsOnTransient(t *testing.T) {
	var fs *faultstore.Store
	ix := fbIndex(t, 70, tindex.WithStoreWrapper(func(p pagestore.Pager) pagestore.Pager {
		fs = faultstore.New(p, 3)
		return fs
	}))
	e := fbEngine(t, ix, Options{LevelOptimization: true, DegradedFallback: true})
	lo := temporal.NewDay(2021, time.January, 1)
	q := Query{From: lo, To: lo + 69}
	oracle, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	// The window's tail (March 8..11) is a page-adjacent daily run; one
	// transient fault fails its coalesced read exactly once.
	page, ok := ix.PageOf(temporal.DayPeriod(lo + 67))
	if !ok {
		t.Fatal("no page for tail day")
	}
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: page, Count: 1})
	res, err := e.Analyze(q)
	if err != nil {
		t.Fatalf("split run should recover every member: %v", err)
	}
	if res.Total != oracle.Total {
		t.Fatalf("total = %d, oracle %d", res.Total, oracle.Total)
	}
	if res.Stats.ReplannedPeriods != 0 {
		t.Fatalf("ReplannedPeriods = %d, want 0 (members recovered on refetch)", res.Stats.ReplannedPeriods)
	}
}

// FuzzFallbackCorruptMonthlyPage feeds arbitrary bytes into a rollup cube's
// page and asserts the degraded-mode invariant: the query either answers
// bit-identically to the fault-free oracle or the replacement page was a
// genuinely valid cube page for that period (in which case reading it as-is
// is correct behaviour, not a missed fault).
func FuzzFallbackCorruptMonthlyPage(f *testing.F) {
	dir := f.TempDir()
	ix, err := tindex.Create(dir, fbSchema(), 4)
	if err != nil {
		f.Fatal(err)
	}
	defer ix.Close()
	lo := temporal.NewDay(2021, time.January, 1)
	for i := 0; i < 40; i++ {
		d := lo + temporal.Day(i)
		if err := ix.AppendDay(d, fbDayCube(ix.Schema(), d)); err != nil {
			f.Fatal(err)
		}
	}
	e, err := NewEngine(ix, Options{LevelOptimization: true, DegradedFallback: true})
	if err != nil {
		f.Fatal(err)
	}
	q := Query{From: lo, To: lo + 39}
	oracle, err := e.Analyze(q)
	if err != nil {
		f.Fatal(err)
	}
	month := temporal.MonthPeriod(lo)
	page, ok := ix.PageOf(month)
	if !ok {
		f.Fatal("no page for January")
	}
	pageSize := ix.Store().PageSize()
	orig := make([]byte, pageSize)
	if err := ix.Store().ReadPage(page, orig); err != nil {
		f.Fatal(err)
	}

	f.Add(append([]byte(nil), orig...)) // valid page
	f.Add(make([]byte, pageSize))       // zeroed page
	f.Add([]byte("RASEDCB1 not a real header"))
	mangled := append([]byte(nil), orig...)
	mangled[0] ^= 0xFF // bad magic
	f.Add(mangled)
	torn := append([]byte(nil), orig...)
	for i := pageSize / 2; i < pageSize; i++ { // torn tail
		torn[i] = 0
	}
	f.Add(torn)

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, pageSize)
		copy(buf, data) // truncate long inputs, zero-pad short ones
		if err := ix.Store().WritePage(page, buf); err != nil {
			t.Fatal(err)
		}
		defer func() {
			// Undo the damage and release the quarantine via a verifying
			// scrub, so iterations stay independent.
			if err := ix.Store().WritePage(page, orig); err != nil {
				t.Fatal(err)
			}
			if _, err := ix.Scrub(); err != nil {
				t.Fatalf("scrub after restore: %v", err)
			}
		}()
		res, err := e.Analyze(q)
		if err != nil {
			t.Fatalf("single corrupt rollup page must never fail the query: %v", err)
		}
		if _, got, perr := cube.UnmarshalPage(ix.Schema(), buf); perr == nil && got == month {
			return // fuzzer built a valid page for this very period
		}
		if res.Total != oracle.Total {
			t.Fatalf("degraded total = %d, oracle %d", res.Total, oracle.Total)
		}
	})
}

// TestFallbackEligibility pins the eligibility taxonomy: cancellation and
// missing cubes must never be replanned around; storage failures must be.
func TestFallbackEligibility(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"canceled", context.Canceled, false},
		{"deadline_wrapped", fmt.Errorf("fetch: %w", context.DeadlineExceeded), false},
		{"no_cube", fmt.Errorf("fetch: %w", tindex.ErrNoCube), false},
		{"corrupt_page", fmt.Errorf("fetch: %w", tindex.ErrCorruptPage), true},
		{"transient", pagestore.ErrTransient, true},
		{"unknown_io", errors.New("disk on fire"), true},
	}
	for _, tc := range cases {
		if got := fallbackEligible(tc.err); got != tc.want {
			t.Errorf("%s: fallbackEligible(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestFallbackMissingConstituentDegrades covers the honesty rule: a rollup
// period whose constituents are absent from the index cannot be reconstructed
// and must fail typed, not fabricate a partial sum.
func TestFallbackMissingConstituentDegrades(t *testing.T) {
	ix := fbIndex(t, 40) // January and part of February only
	e := fbEngine(t, ix, Options{LevelOptimization: true, DegradedFallback: true})
	res := &Result{}
	mar := temporal.MonthPeriod(temporal.NewDay(2021, time.March, 1))
	if _, err := e.fetchFallback(context.Background(), mar, res); !errors.Is(err, ErrDegraded) {
		t.Fatalf("fallback for uncovered month = %v, want ErrDegraded", err)
	}
}

// TestFallbackCancelledContext: cancellation is the caller giving up, so the
// reconstruction loop must stop with the ctx error, not ErrDegraded.
func TestFallbackCancelledContext(t *testing.T) {
	ix := fbIndex(t, 40)
	e := fbEngine(t, ix, Options{LevelOptimization: true, DegradedFallback: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := &Result{}
	jan := temporal.MonthPeriod(temporal.NewDay(2021, time.January, 1))
	_, err := e.fetchFallback(ctx, jan, res)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrDegraded) {
		t.Fatalf("fallback under cancelled ctx = %v, want context.Canceled and not ErrDegraded", err)
	}
}

// TestFallbackConstituentDeadline: a deadline that expires inside a
// constituent fetch (injected latency) must propagate the ctx error through
// the reconstruction instead of being replanned around.
func TestFallbackConstituentDeadline(t *testing.T) {
	var fs *faultstore.Store
	ix := fbIndex(t, 40, tindex.WithStoreWrapper(func(p pagestore.Pager) pagestore.Pager {
		fs = faultstore.New(p, 7)
		return fs
	}))
	e := fbEngine(t, ix, Options{LevelOptimization: true, DegradedFallback: true})
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindLatency, Page: -1, Latency: 200 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res := &Result{}
	jan := temporal.MonthPeriod(temporal.NewDay(2021, time.January, 1))
	_, err := e.fetchFallback(ctx, jan, res)
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrDegraded) {
		t.Fatalf("fallback past deadline = %v, want context.DeadlineExceeded and not ErrDegraded", err)
	}
}
