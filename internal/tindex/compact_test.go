package tindex

// Compaction tests: tier migration correctness (queries see identical cubes
// before and after), persistence across reopen, pull-back on rewrite, skip
// accounting, scrub coverage of the cold tier, and — under -race — compaction
// racing live queries.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/temporal"
)

// allPeriods snapshots every period the index has, across levels and tiers.
func allPeriods(ix *Index) []temporal.Period {
	var ps []temporal.Period
	for lvl := temporal.Daily; lvl <= temporal.Yearly; lvl++ {
		ps = append(ps, ix.Periods(lvl)...)
	}
	return ps
}

// snapshotCubes fetches a materialized copy of every period's cube.
func snapshotCubes(t *testing.T, ix *Index, ps []temporal.Period) map[temporal.Period]*cube.Cube {
	t.Helper()
	out := make(map[temporal.Period]*cube.Cube, len(ps))
	for _, p := range ps {
		cb, err := ix.Fetch(p)
		if err != nil {
			t.Fatalf("fetch %v: %v", p, err)
		}
		out[p] = cb
	}
	return out
}

func TestCompactRoundTrip(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+40)
	ps := allPeriods(ix)
	want := snapshotCubes(t, ix, ps)

	st, err := ix.CompactPeriods(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compacted != len(ps) {
		t.Fatalf("compacted %d of %d periods (stats %+v)", st.Compacted, len(ps), st)
	}
	if st.ColdBytes >= st.HotBytesFreed {
		t.Errorf("compaction grew the footprint: freed %d hot bytes, wrote %d cold", st.HotBytesFreed, st.ColdBytes)
	}
	for _, p := range ps {
		if !ix.IsCold(p) {
			t.Fatalf("%v not cold after compaction", p)
		}
		if !ix.HasCube(p) {
			t.Fatalf("HasCube(%v) = false after compaction", p)
		}
		got, err := ix.Fetch(p)
		if err != nil {
			t.Fatalf("fetch cold %v: %v", p, err)
		}
		if !got.Equal(want[p]) {
			t.Fatalf("cold fetch of %v differs from pre-compaction cube", p)
		}
		pc, err := fetchPooled(context.Background(), ix, p)
		if err != nil {
			t.Fatalf("pooled fetch cold %v: %v", p, err)
		}
		if !pc.Equal(want[p]) {
			t.Fatalf("pooled cold fetch of %v differs", p)
		}
		ix.ReleasePooled(pc)
	}

	// Tier accounting: everything moved.
	ts := ix.Tiers()
	if ts.HotPages != 0 || ts.ColdPages != len(ps) {
		t.Fatalf("tiers = %+v, want 0 hot / %d cold", ts, len(ps))
	}
	if ts.ColdBytes >= ts.HotFileBytes {
		t.Errorf("cold tier (%d B) not smaller than the hot file it replaced (%d B)", ts.ColdBytes, ts.HotFileBytes)
	}
}

func TestCompactPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ix, err := Create(dir, testSchema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	lo := temporal.NewDay(2021, time.March, 1)
	appendRange(t, ix, lo, lo+20)
	ps := allPeriods(ix)
	want := snapshotCubes(t, ix, ps)
	if _, err := ix.CompactPeriods(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, p := range ps {
		if !re.IsCold(p) {
			t.Fatalf("%v lost its cold placement across reopen", p)
		}
		got, err := re.Fetch(p)
		if err != nil {
			t.Fatalf("fetch %v after reopen: %v", p, err)
		}
		if !got.Equal(want[p]) {
			t.Fatalf("%v cube changed across compact+reopen", p)
		}
	}
	if n, err := re.Scrub(); err != nil || n != len(ps) {
		t.Fatalf("scrub over cold tier: checked %d (want %d), err %v", n, len(ps), err)
	}
}

func TestCompactSkipAccounting(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.May, 1)
	appendRange(t, ix, lo, lo+9)
	ps := allPeriods(ix)

	if _, err := ix.CompactPeriods(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	// Second pass: everything already cold, plus one period that never
	// existed.
	again := append([]temporal.Period{}, ps...)
	again = append(again, temporal.DayPeriod(lo+1000))
	st, err := ix.CompactPeriods(context.Background(), again)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compacted != 0 || st.SkippedCold != len(ps) || st.SkippedMissing != 1 {
		t.Fatalf("skip accounting = %+v, want 0 compacted / %d cold / 1 missing", st, len(ps))
	}
}

func TestCompactCorruptPageQuarantinedNotMigrated(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.June, 1)
	appendRange(t, ix, lo, lo+4)
	bad := temporal.DayPeriod(lo + 2)

	// Flip a payload byte through the raw store: persistent rot.
	page, ok := ix.PageOf(bad)
	if !ok {
		t.Fatalf("no page for %v", bad)
	}
	buf := make([]byte, ix.Store().PageSize())
	if err := ix.Store().ReadPage(page, buf); err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0xFF
	if err := ix.Store().WritePage(page, buf); err != nil {
		t.Fatal(err)
	}

	st, err := ix.CompactPeriods(context.Background(), allPeriods(ix))
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedCorrupt != 1 || st.Compacted != 4 {
		t.Fatalf("stats = %+v, want 4 compacted / 1 corrupt", st)
	}
	if !ix.Quarantined(bad) {
		t.Error("corrupt period must be quarantined by the compaction read-back")
	}
	if ix.IsCold(bad) {
		t.Error("corrupt period must not be migrated")
	}
}

func TestCompactBeforeKeepsRecentHot(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	hi := lo + 60
	appendRange(t, ix, lo, hi)

	cutoff := hi - 6
	st, err := ix.CompactBefore(context.Background(), cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compacted == 0 {
		t.Fatal("CompactBefore compacted nothing")
	}
	for _, p := range allPeriods(ix) {
		endsBefore := p.End() < cutoff
		if ix.IsCold(p) != endsBefore {
			t.Errorf("%v (ends %v): cold=%v, want %v", p, p.End(), ix.IsCold(p), endsBefore)
		}
	}
}

func TestRewritePullsPeriodBackHot(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.July, 1)
	appendRange(t, ix, lo, lo+9)
	if _, err := ix.CompactPeriods(context.Background(), allPeriods(ix)); err != nil {
		t.Fatal(err)
	}

	d := lo + 3
	repl := cube.New(ix.Schema())
	repl.Add(1, 2, 3, 4, 99)
	if err := ix.ReplaceDays(map[temporal.Day]*cube.Cube{d: repl}); err != nil {
		t.Fatal(err)
	}
	p := temporal.DayPeriod(d)
	if ix.IsCold(p) {
		t.Fatal("rewritten day must migrate back to the hot tier")
	}
	got, err := ix.Fetch(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(repl) {
		t.Fatal("pulled-back day returned stale cube")
	}
	// The orphaned extent must eventually be recyclable: compact the day
	// again and confirm the cold store did not grow a second extent for it.
	before := ix.Tiers().ColdFileBytes
	if _, err := ix.CompactPeriods(context.Background(), []temporal.Period{p}); err != nil {
		t.Fatal(err)
	}
	if after := ix.Tiers().ColdFileBytes; after > before {
		t.Errorf("re-compaction appended (%d -> %d B) instead of recycling the retired extent", before, after)
	}
}

func TestColdRunCoalescedFetch(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.August, 1)
	appendRange(t, ix, lo, lo+9)
	want := snapshotCubes(t, ix, allPeriods(ix))
	if _, err := ix.CompactPeriods(context.Background(), allPeriods(ix)); err != nil {
		t.Fatal(err)
	}

	// Days were compacted in sorted order into an empty cold store, so their
	// extents are adjacent; the coalesced run paths must serve them in one
	// read each.
	ps := make([]temporal.Period, 0, 10)
	for d := lo; d <= lo+9; d++ {
		ps = append(ps, temporal.DayPeriod(d))
	}
	before := ix.ColdStore().Metrics().CoalescedReads.Value()
	cbs, err := ix.FetchRunPooledCtx(context.Background(), ps)
	if err != nil {
		t.Fatalf("cold pooled run fetch: %v", err)
	}
	for i, p := range ps {
		if !cbs[i].Equal(want[p]) {
			t.Fatalf("pooled run cube %v differs", p)
		}
		ix.ReleasePooled(cbs[i])
	}
	if got := ix.ColdStore().Metrics().CoalescedReads.Value() - before; got != 1 {
		t.Fatalf("cold run took %d coalesced reads, want 1", got)
	}

	// A run spanning tiers must come back ErrNotAdjacent, not torn data.
	d := lo + 4
	repl := cube.New(ix.Schema())
	repl.Add(0, 0, 0, 0, 7)
	if err := ix.ReplaceDays(map[temporal.Day]*cube.Cube{d: repl}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.FetchRunPooledCtx(context.Background(), ps); !errors.Is(err, ErrNotAdjacent) {
		t.Fatalf("mixed-tier run = %v, want ErrNotAdjacent", err)
	}
}

// TestCompactionUnderQueries races the compactor against concurrent readers
// (run with -race). Every fetch must return either tier's copy intact —
// never an error, never a torn cube.
func TestCompactionUnderQueries(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+30)
	ps := allPeriods(ix)
	want := snapshotCubes(t, ix, ps)
	ix.EnableLive()

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := ps[(i*7+w)%len(ps)]
				cb, err := fetchPooled(ctx, ix, p)
				if err != nil {
					errs <- err
					return
				}
				ok := cb.Equal(want[p])
				ix.ReleasePooled(cb)
				if !ok {
					errs <- context.DeadlineExceeded // marker; message below
					return
				}
			}
		}(w)
	}

	// Compact in small batches to maximize tier-boundary crossings, then
	// pull a few periods back hot via rewrite, then compact again.
	for i := 0; i < len(ps); i += 5 {
		end := i + 5
		if end > len(ps) {
			end = len(ps)
		}
		if _, err := ix.CompactPeriods(ctx, ps[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("query failed or returned torn cube during compaction: %v", err)
	default:
	}

	for _, p := range ps {
		got, err := ix.Fetch(p)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want[p]) {
			t.Fatalf("%v differs after concurrent compaction", p)
		}
	}
}
