package tindex

// Fault-path tests: the bounded retry loop, the quarantine lifecycle, and
// pooled-fetch ownership under injected corruption: every Read*/Fetch*
// surface of the index is driven through an injected failure here.

import (
	"context"
	"errors"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/faultstore"
	"rased/internal/pagestore"
	"rased/internal/temporal"
)

// createFaulty builds an index with a faultstore slotted underneath via
// WithStoreWrapper and returns both. Rules are added by the caller, so the
// build itself runs fault-free.
func createFaulty(t *testing.T, levels int, seed int64) (*Index, *faultstore.Store) {
	t.Helper()
	var fs *faultstore.Store
	ix, err := Create(t.TempDir(), testSchema(), levels, WithStoreWrapper(func(p pagestore.Pager) pagestore.Pager {
		fs = faultstore.New(p, seed)
		return fs
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, fs
}

// corruptOnDisk flips one payload byte of period p's page through the raw
// store, bypassing injection: persistent bit rot rather than a read-side
// fault.
func corruptOnDisk(t *testing.T, ix *Index, p temporal.Period) {
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

func TestRetryAbsorbsTransientErrors(t *testing.T) {
	ix, fs := createFaulty(t, 1, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+6)
	ix.SetRetryPolicy(RetryPolicy{Attempts: 3, Backoff: time.Millisecond})

	p := temporal.DayPeriod(lo)
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: -1, Count: 2})
	cb, err := ix.Fetch(p)
	if err != nil {
		t.Fatalf("retry should absorb 2 transient failures: %v", err)
	}
	if !cb.Equal(dayCube(ix.Schema(), lo)) {
		t.Fatal("retried fetch returned wrong cube")
	}
	if got := ix.Metrics().ReadRetries.Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

func TestRetryDisabledByDefault(t *testing.T) {
	ix, fs := createFaulty(t, 1, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo)
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: -1, Count: 1})
	_, err := ix.Fetch(temporal.DayPeriod(lo))
	if !errors.Is(err, pagestore.ErrTransient) {
		t.Fatalf("default policy must not retry; want transient error, got %v", err)
	}
}

func TestRetryGivesUpTyped(t *testing.T) {
	ix, fs := createFaulty(t, 1, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo)
	ix.SetRetryPolicy(RetryPolicy{Attempts: 2, Backoff: time.Millisecond})
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: -1})
	_, err := fetchPooled(context.Background(), ix, temporal.DayPeriod(lo))
	if !errors.Is(err, pagestore.ErrTransient) {
		t.Fatalf("exhausted retry must surface the transient error, got %v", err)
	}
	// Permanent errors are not retried at all.
	fs.ClearRules()
	ix.Metrics().ReadRetries.Reset()
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindPermanent, Page: -1})
	if _, err := fetchPooled(context.Background(), ix, temporal.DayPeriod(lo)); !errors.Is(err, faultstore.ErrInjected) {
		t.Fatalf("want injected permanent error, got %v", err)
	}
	if got := ix.Metrics().ReadRetries.Value(); got != 0 {
		t.Fatalf("permanent error consumed %d retries; must be 0", got)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ix, fs := createFaulty(t, 1, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo)
	ix.SetRetryPolicy(RetryPolicy{Attempts: 10, Backoff: 10 * time.Second})
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ix.FetchCtx(ctx, temporal.DayPeriod(lo))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("retry backoff ignored the context")
	}
}

func TestQuarantineLifecycle(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+9)
	p := temporal.DayPeriod(lo + 3)
	corruptOnDisk(t, ix, p)

	// First fetch detects the corruption, returns the typed error, and
	// quarantines the page.
	_, err := ix.Fetch(p)
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("want ErrCorruptPage, got %v", err)
	}
	if !errors.Is(err, cube.ErrChecksum) {
		t.Fatalf("corruption cause must stay visible, got %v", err)
	}
	if !ix.Quarantined(p) || ix.QuarantineCount() != 1 {
		t.Fatal("page not quarantined after checksum failure")
	}
	if ix.Has(p) {
		t.Fatal("Has must exclude quarantined periods (the planner routes around them)")
	}
	if ix.Metrics().ChecksumFailures.Value() != 1 {
		t.Fatalf("checksum failure counter = %d, want 1", ix.Metrics().ChecksumFailures.Value())
	}

	// Subsequent fetches fail fast without touching the disk.
	before := ix.Store().Stats().Reads
	if _, err := ix.Fetch(p); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("quarantined fetch should fail typed, got %v", err)
	}
	if got := ix.Store().Stats().Reads; got != before {
		t.Fatalf("quarantined fetch still read the disk (%d -> %d reads)", before, got)
	}

	// Neighbouring periods are unaffected.
	if _, err := ix.Fetch(temporal.DayPeriod(lo)); err != nil {
		t.Fatalf("healthy page should still fetch: %v", err)
	}

	// A rewrite of the period repairs it and lifts the quarantine.
	good := dayCube(ix.Schema(), lo+3)
	if err := ix.ReplaceDays(map[temporal.Day]*cube.Cube{lo + 3: good}); err != nil {
		t.Fatal(err)
	}
	if ix.Quarantined(p) {
		t.Fatal("rewrite must clear the quarantine")
	}
	cb, err := ix.Fetch(p)
	if err != nil {
		t.Fatalf("fetch after repair: %v", err)
	}
	if !cb.Equal(good) {
		t.Fatal("repaired cube mismatch")
	}
}

func TestScrubQuarantinesAndReleases(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+4)
	p := temporal.DayPeriod(lo + 2)
	page, _ := ix.PageOf(p)
	orig := make([]byte, ix.Store().PageSize())
	if err := ix.Store().ReadPage(page, orig); err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, ix, p)

	if _, err := ix.Scrub(); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("scrub of a corrupt page must report ErrCorruptPage, got %v", err)
	}
	if !ix.Quarantined(p) {
		t.Fatal("scrub must quarantine the bad page")
	}

	// Restore the original bytes (out-of-band repair) and scrub again: the
	// page verifies, so the quarantine is released.
	if err := ix.Store().WritePage(page, orig); err != nil {
		t.Fatal(err)
	}
	checked, err := ix.Scrub()
	if err != nil {
		t.Fatalf("scrub after repair: %v", err)
	}
	if checked != 5 {
		t.Fatalf("scrub checked %d pages, want 5", checked)
	}
	if ix.Quarantined(p) {
		t.Fatal("clean scrub must release the quarantine")
	}
}

func TestFetchNoCubeTyped(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo)
	for _, p := range []temporal.Period{
		temporal.DayPeriod(lo + 100),
		{Level: temporal.Monthly, Index: 0},
	} {
		if _, err := ix.Fetch(p); !errors.Is(err, ErrNoCube) {
			t.Errorf("Fetch(%v) = %v, want ErrNoCube", p, err)
		}
		if _, err := fetchPooled(context.Background(), ix, p); !errors.Is(err, ErrNoCube) {
			t.Errorf("FetchRunPooledCtx(%v) = %v, want ErrNoCube", p, err)
		}
	}
}

// TestPooledFetchCorruptionPoolBalance is the pool-leak regression test: a
// checksum failure on the pooled fetch path must hand the scratch cube back
// to the pool. The alloc-regression signal is CubeMisses — if the scratch
// cube leaked on each failure, every iteration would miss the pool and
// allocate a fresh ~cells*8-byte cube.
func TestPooledFetchCorruptionPoolBalance(t *testing.T) {
	ix, fs := createFaulty(t, 1, 9)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+6)
	p := temporal.DayPeriod(lo + 1)
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindCorrupt, Page: -1})

	met := ix.Pool().Metrics()
	base := met.CubeGets.Value()
	const iters = 50
	for i := 0; i < iters; i++ {
		_, err := fetchPooled(context.Background(), ix, p)
		if !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("iter %d: want ErrCorruptPage, got %v", i, err)
		}
		// Lift the quarantine so the next iteration exercises the decode
		// path again instead of failing fast at lookup.
		ix.clearQuarantine(p)
	}
	gets, puts := met.CubeGets.Value()-base, met.CubePuts.Value()
	if gets != iters {
		t.Fatalf("pool gets = %d, want %d", gets, iters)
	}
	if puts != gets {
		t.Fatalf("pool leak: %d gets vs %d puts under corruption", gets, puts)
	}
	// Under the race detector sync.Pool drops items on purpose, so only the
	// get/put balance above is meaningful there — skip the miss ceiling.
	if misses := met.CubeMisses.Value(); !raceEnabled && misses > 2 {
		t.Fatalf("pool misses = %d after %d corrupt fetches: scratch cubes are not being recycled", misses, iters)
	}
}

func TestRunPooledCorruptionPoolBalance(t *testing.T) {
	ix, fs := createFaulty(t, 1, 11)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+4)
	run := []temporal.Period{
		temporal.DayPeriod(lo), temporal.DayPeriod(lo + 1), temporal.DayPeriod(lo + 2),
		temporal.DayPeriod(lo + 3), temporal.DayPeriod(lo + 4),
	}
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindCorrupt, Page: 2, Count: 1})

	met := ix.Pool().Metrics()
	_, err := ix.FetchRunPooledCtx(context.Background(), run)
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("want ErrCorruptPage from the corrupted run, got %v", err)
	}
	if gets, puts := met.CubeGets.Value(), met.CubePuts.Value(); gets != puts {
		t.Fatalf("run fetch leaked pooled cubes: %d gets vs %d puts", gets, puts)
	}

	// After the one-shot fault the quarantined period blocks the run; the
	// healthy prefix still fetches.
	if _, err := ix.FetchRunPooledCtx(context.Background(), run); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("run over a quarantined period must fail typed, got %v", err)
	}
}

func TestRunFetchTransientRetry(t *testing.T) {
	ix, fs := createFaulty(t, 1, 13)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+3)
	ix.SetRetryPolicy(RetryPolicy{Attempts: 2, Backoff: time.Millisecond})
	run := []temporal.Period{
		temporal.DayPeriod(lo), temporal.DayPeriod(lo + 1),
		temporal.DayPeriod(lo + 2), temporal.DayPeriod(lo + 3),
	}
	// One transient failure on a mid-run page fails the whole coalesced read
	// once; the retry re-issues it and succeeds.
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: 1, Count: 1})
	cubes, err := ix.FetchRunPooledCtx(context.Background(), run)
	if err != nil {
		t.Fatalf("retried run fetch: %v", err)
	}
	if len(cubes) != 4 {
		t.Fatalf("run returned %d cubes, want 4", len(cubes))
	}
	if ix.Metrics().ReadRetries.Value() != 1 {
		t.Fatalf("retries = %d, want 1", ix.Metrics().ReadRetries.Value())
	}
}
