package tindex

// Swap-protocol tests for the live-ingest epoch layer: concurrent readers
// during sustained copy-on-write publishes must never see a torn page, a
// stale-directory read, or a counter that moves backwards; retired pages must
// be recycled (the store must not grow without bound) but never while a
// reader could still hold their ids or a durable checkpoint references them.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/temporal"
)

// publishGrowing publishes epochs cycles times, each adding inc to cell
// (0,0,0,0) of day d's cube, and returns the final cube.
func publishGrowing(t *testing.T, ix *Index, d temporal.Day, cycles int) *cube.Cube {
	t.Helper()
	cur := cube.New(ix.Schema())
	for i := 0; i < cycles; i++ {
		cur.Add(0, 0, 0, 0, 1)
		if _, err := ix.PublishEpoch(map[temporal.Period]*cube.Cube{temporal.DayPeriod(d): cur.Clone()}); err != nil {
			t.Errorf("publish %d: %v", i, err)
			return cur
		}
	}
	return cur
}

// TestEpochSwapConcurrentReaders is the -race chaos test for the swap
// protocol: four readers hammer the hot (republished) day and the historical
// range while a writer publishes 300 epochs. Every read must decode cleanly
// (no torn hierarchy, no recycled-underfoot page), and each reader's observed
// total for the hot day must be monotone non-decreasing — the copy-on-write
// contract makes every published image a superset of the previous one.
func TestEpochSwapConcurrentReaders(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.March, 1)
	appendRange(t, ix, lo, lo+9)
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	ix.EnableLive()
	hot := lo + 10

	const cycles = 300
	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				// Hot day: must be torn-free and monotone once it exists.
				cb, err := ix.Fetch(temporal.DayPeriod(hot))
				switch {
				case errors.Is(err, ErrNoCube):
					// Not yet published; fine.
				case err != nil:
					torn.Add(1)
					t.Errorf("reader %d: hot fetch: %v", r, err)
				default:
					if tot := cb.Total(); tot < last {
						torn.Add(1)
						t.Errorf("reader %d: total moved backwards %d -> %d", r, last, tot)
					} else {
						last = tot
					}
				}
				// Historical day: immutable, must always verify.
				d := lo + temporal.Day(r*2)
				if _, err := ix.Fetch(temporal.DayPeriod(d)); err != nil {
					torn.Add(1)
					t.Errorf("reader %d: historical fetch %v: %v", r, d, err)
				}
			}
		}(r)
	}
	final := publishGrowing(t, ix, hot, cycles)
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn/inconsistent reads", n)
	}
	got, err := ix.Fetch(temporal.DayPeriod(hot))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(final) {
		t.Fatalf("final published cube diverged: total %d, want %d", got.Total(), final.Total())
	}
	if e := ix.Epoch(); e != cycles {
		t.Fatalf("epoch = %d, want %d", e, cycles)
	}
}

// TestEpochPublishRecyclesPages: with no pinned readers, sustained publishes
// reuse retired pages instead of growing the store one page per epoch. The
// durable checkpoint's page stays protected until the next Sync supersedes
// it, so the store may exceed the live page count by a small constant only.
func TestEpochPublishRecyclesPages(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2022, time.July, 1)
	appendRange(t, ix, lo, lo+3)
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	ix.EnableLive()
	publishGrowing(t, ix, lo+4, 200)
	// 5 live pages (4 historical + hot day); the durable set and the
	// just-published page can pin a few extra.
	if n := ix.Store().NumPages(); n > 8 {
		t.Fatalf("store grew to %d pages over 200 publishes (retired pages not recycled)", n)
	}
}

// TestEpochPinBlocksRecycle: a pinned reader epoch must keep its pages from
// being recycled even across many subsequent publishes.
func TestEpochPinBlocksRecycle(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2022, time.July, 1)
	appendRange(t, ix, lo, lo+1)
	ix.EnableLive()
	hot := lo + 2

	publishGrowing(t, ix, hot, 3)
	tok := ix.pinEpoch() // reader starts here, holding the epoch-3 view
	page, _ := ix.PageOf(temporal.DayPeriod(hot))
	publishGrowing(t, ix, hot, 50)
	ix.lmu.Lock()
	recycled := false
	for _, f := range ix.freePages {
		if f == page {
			recycled = true
		}
	}
	ix.lmu.Unlock()
	if recycled {
		t.Fatalf("page %d recycled while pinned at an older epoch", page)
	}
	ix.unpinEpoch(tok)
	publishGrowing(t, ix, hot, 2)
	ix.lmu.Lock()
	freed := len(ix.freePages) > 0
	ix.lmu.Unlock()
	if !freed {
		t.Fatal("no pages recycled after the pin was released")
	}
}

// TestEpochPersistsAcrossReopen: the epoch counter survives Sync + reopen, so
// recovered deployments keep monotone epochs.
func TestEpochPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ix, err := Create(dir, testSchema(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ix.EnableLive()
	lo := temporal.NewDay(2023, time.May, 1)
	publishGrowing(t, ix, lo, 7)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e := re.Epoch(); e != 7 {
		t.Fatalf("reopened epoch = %d, want 7", e)
	}
	cb, err := re.Fetch(temporal.DayPeriod(lo))
	if err != nil {
		t.Fatal(err)
	}
	if cb.Total() != 7 {
		t.Fatalf("reopened cube total = %d, want 7", cb.Total())
	}
}

// TestPublishFailureLeavesDirectoryUntouched: a publish that cannot stage its
// scratch pages must not change what readers see.
func TestPublishFailureLeavesDirectoryUntouched(t *testing.T) {
	ix := create(t, 1)
	ix.EnableLive()
	lo := temporal.NewDay(2023, time.May, 1)
	publishGrowing(t, ix, lo, 2)
	before := ix.Epoch()
	// Non-consecutive day: rejected before any page write.
	bad := map[temporal.Period]*cube.Cube{temporal.DayPeriod(lo + 5): cube.New(ix.Schema())}
	if _, err := ix.PublishEpoch(bad); err == nil {
		t.Fatal("non-consecutive publish accepted")
	}
	if ix.Epoch() != before {
		t.Fatalf("failed publish moved the epoch %d -> %d", before, ix.Epoch())
	}
	if ix.Has(temporal.DayPeriod(lo + 5)) {
		t.Fatal("failed publish installed a directory entry")
	}
}
