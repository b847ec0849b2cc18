package tindex

import (
	"context"
	"errors"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/temporal"
)

// fetchPooled is the query side's single-period fetch: a run of one.
func fetchPooled(ctx context.Context, ix *Index, p temporal.Period) (*cube.Cube, error) {
	cubes, err := ix.FetchRunPooledCtx(ctx, []temporal.Period{p})
	if err != nil {
		return nil, err
	}
	return cubes[0], nil
}

func TestFetchPooledMatchesFetch(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	hi := temporal.NewDay(2021, time.January, 20)
	appendRange(t, ix, lo, hi)

	ctx := context.Background()
	for d := lo; d <= hi; d++ {
		p := temporal.DayPeriod(d)
		want, err := ix.Fetch(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fetchPooled(ctx, ix, p)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("day %v: pooled fetch differs from eager fetch", d)
		}
		ix.ReleasePooled(got)
	}
	if _, err := fetchPooled(ctx, ix, temporal.DayPeriod(hi+1)); err == nil {
		t.Error("pooled fetch of missing period should fail")
	}
}

// TestFetchPooledSteadyStateAllocs pins the point of the pool: after warmup,
// a pooled miss fetch — a run of one — allocates neither the page buffer nor
// the cube (the owned-cube Fetch allocates both every time), only the
// one-element result slice and its bookkeeping.
func TestFetchPooledSteadyStateAllocs(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+10)
	ctx := context.Background()
	p := temporal.DayPeriod(lo + 3)

	// Warm the pool.
	for i := 0; i < 4; i++ {
		cb, err := fetchPooled(ctx, ix, p)
		if err != nil {
			t.Fatal(err)
		}
		ix.ReleasePooled(cb)
	}
	allocs := testing.AllocsPerRun(50, func() {
		cb, err := fetchPooled(ctx, ix, p)
		if err != nil {
			t.Fatal(err)
		}
		ix.ReleasePooled(cb)
	})
	// sync.Pool gives no hard guarantee, but steady state is the result
	// slice and little else; the eager path is 5+ allocs including a
	// multi-KB buffer. The bound holds only where the pool keeps what it is
	// given: the race detector drops a random quarter of Puts.
	if raceEnabled {
		t.Logf("pooled fetch allocs/op = %v; <= 2 bound not enforced under the race detector, which drops sync.Pool Puts", allocs)
		return
	}
	if allocs > 2 {
		t.Errorf("pooled fetch allocs/op = %v, want <= 2", allocs)
	}
}

func TestFetchRunCoalesced(t *testing.T) {
	ix := create(t, 1) // daily only: appended days occupy consecutive pages
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+30)
	ctx := context.Background()

	ps := make([]temporal.Period, 0, 8)
	for d := lo + 5; d < lo+13; d++ {
		ps = append(ps, temporal.DayPeriod(d))
	}
	before := ix.Store().Metrics().CoalescedReads.Value()

	cubes, err := ix.FetchRunPooledCtx(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cubes) != len(ps) {
		t.Fatalf("got %d cubes for %d periods", len(cubes), len(ps))
	}
	if got := ix.Store().Metrics().CoalescedReads.Value() - before; got != 1 {
		t.Errorf("coalesced reads = %d, want 1 for the run", got)
	}
	for i, p := range ps {
		want, err := ix.Fetch(p)
		if err != nil {
			t.Fatal(err)
		}
		if !cubes[i].Equal(want) {
			t.Errorf("run cube %d differs from eager fetch of %v", i, p)
		}
		ix.ReleasePooled(cubes[i])
	}
}

func TestFetchRunRejectsNonAdjacent(t *testing.T) {
	ix := create(t, 4)                           // rollup pages interleave with days: gaps exist
	lo := temporal.NewDay(2021, time.January, 4) // a Monday
	appendRange(t, ix, lo, lo+13)
	ctx := context.Background()

	// Days spanning an end-of-week rollup are not page-adjacent: the first
	// fully covered week closes at day +10 and its rollup page lands between
	// days +10 and +11.
	ps := []temporal.Period{}
	for d := lo + 8; d < lo+13; d++ {
		ps = append(ps, temporal.DayPeriod(d))
	}
	adjacent := true
	first, _ := ix.PageOf(ps[0])
	for i, p := range ps {
		if page, ok := ix.PageOf(p); !ok || page != first+i {
			adjacent = false
		}
	}
	if adjacent {
		t.Fatal("test premise broken: span should cross a rollup page")
	}
	if _, err := ix.FetchRunPooledCtx(ctx, ps); !errors.Is(err, ErrNotAdjacent) {
		t.Errorf("non-adjacent run = %v, want ErrNotAdjacent", err)
	}
	if _, err := ix.FetchRunPooledCtx(ctx, nil); err == nil {
		t.Error("empty run should be rejected")
	}
	if _, err := ix.FetchRunPooledCtx(ctx, []temporal.Period{temporal.DayPeriod(lo + 500)}); !errors.Is(err, ErrNoCube) {
		t.Errorf("missing period in run = %v, want ErrNoCube", err)
	}
}

func TestFetchRunLatencyOncePerRun(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+20)
	lat := 20 * time.Millisecond
	ix.Store().SetReadLatency(lat)
	defer ix.Store().SetReadLatency(0)

	ps := make([]temporal.Period, 0, 8)
	for d := lo; d < lo+8; d++ {
		ps = append(ps, temporal.DayPeriod(d))
	}
	start := time.Now()
	if _, err := ix.FetchRunPooledCtx(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el >= 4*lat {
		t.Errorf("8-page run took %v; coalescing should pay the latency once, not per page", el)
	}
}

func TestPageOf(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+2)
	if _, ok := ix.PageOf(temporal.DayPeriod(lo + 99)); ok {
		t.Error("PageOf of missing period should report !ok")
	}
	p0, ok0 := ix.PageOf(temporal.DayPeriod(lo))
	p1, ok1 := ix.PageOf(temporal.DayPeriod(lo + 1))
	if !ok0 || !ok1 || p1 != p0+1 {
		t.Errorf("daily-only appends should be consecutive: %d,%d (%v,%v)", p0, p1, ok0, ok1)
	}
}

func TestFetchRunPooledCorruption(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+5)
	ctx := context.Background()

	// Overwrite day lo+2's page with a page claiming a different period: the
	// run decode must fail on the directory check and release its cubes.
	victim := temporal.DayPeriod(lo + 2)
	page, ok := ix.PageOf(victim)
	if !ok {
		t.Fatal("missing victim page")
	}
	bogus := cube.MarshalPage(cube.New(ix.Schema()), temporal.DayPeriod(lo+400))
	if err := ix.Store().WritePage(page, bogus); err != nil {
		t.Fatal(err)
	}
	ps := []temporal.Period{temporal.DayPeriod(lo + 1), victim, temporal.DayPeriod(lo + 3)}
	if _, err := ix.FetchRunPooledCtx(ctx, ps); err == nil {
		t.Error("corrupted directory entry in run should fail")
	}
	if _, err := fetchPooled(ctx, ix, victim); err == nil {
		t.Error("corrupted directory entry should fail pooled fetch")
	}
}
