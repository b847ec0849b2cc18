package tindex

// Live-ingest epoch layer: copy-on-write publication of index updates.
//
// Batch ingest (AppendDay/ReplaceDays) rewrites pages in place, which is fine
// when nobody queries mid-rebuild. Live ingest folds updates into the current
// day many times a minute while queries run concurrently, so in-place rewrites
// would let a reader observe a half-written page or a hierarchy where a week
// cube disagrees with its days. The epoch layer fixes both:
//
//   - Every publish writes the new cube images to *scratch* pages that no
//     reader can reach (recycled retired pages or fresh appends), then — in a
//     single directory critical section — swaps the new page ids in and bumps
//     the epoch counter. Readers either see the whole batch or none of it.
//   - Published pages are immutable: once a page id is installed in the
//     directory it is never written again until it has been retired by a
//     later publish AND no reader can still hold its id AND it is not
//     referenced by the last durable checkpoint. The fetch paths pin the
//     current epoch for the duration of a read, which is what makes "no
//     reader can still hold its id" decidable.
//   - Crash recovery falls out of the durability rule: Sync persists the
//     directory (with its epoch) and snapshots the page ids it references;
//     those pages are never recycled until a later Sync supersedes them, so a
//     crash at any point between checkpoints reopens to exactly the last
//     synced epoch with all its pages intact.
//
// The publish path assumes a single writer (the live pipeline); concurrent
// publishes or a concurrent batch writer are not supported. Readers are
// unrestricted.

import (
	"fmt"
	"math"
	"sort"

	"rased/internal/cube"
	"rased/internal/temporal"
)

// retiredPage is a hot page or cold extent superseded by a publish, a tier
// migration, or a pull-back. It still backs the previous epoch's view, so it
// may only be recycled once every pinned reader started at or after the epoch
// that superseded it (and it is not part of the last durable checkpoint).
// slots == 0 marks a hot page; slots > 0 a cold extent of that many slots.
type retiredPage struct {
	page  int
	slots int
	epoch uint64
}

// EnableLive switches the index into live mode: fetch paths pin the current
// epoch around each read so PublishEpoch can recycle retired pages safely.
// The pages currently in the directory form the initial durable set — they
// were loaded from (or just written to) the on-disk meta and must survive
// until the next Sync supersedes them. Non-live deployments never call this
// and pay a single atomic load per fetch.
func (ix *Index) EnableLive() {
	ix.mu.RLock()
	snap := make(map[int]bool, len(ix.pages))
	for _, pg := range ix.pages {
		snap[pg] = true
	}
	snapCold := make(map[int]bool, len(ix.extents))
	for _, e := range ix.extents {
		snapCold[e.id] = true
	}
	ix.mu.RUnlock()
	ix.lmu.Lock()
	if ix.pins == nil {
		ix.pins = make(map[uint64]int)
	}
	if ix.durable == nil {
		ix.durable = snap
	}
	if ix.durableCold == nil {
		ix.durableCold = snapCold
	}
	ix.lmu.Unlock()
	ix.live.Store(true)
}

// Epoch returns the currently published epoch. Zero means no live publish has
// happened (batch-built indexes stay at their last persisted epoch).
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// pinEpoch registers the caller as a reader of the current epoch and returns
// a token for unpinEpoch. The token is epoch+1 so that 0 can mean "not
// pinned" (live mode off) without an extra flag. The pin must be taken before
// the directory lookup and held across the page read: a page retired at epoch
// E can only have been looked up by a reader whose pin predates E, so holding
// the pin across the read guarantees the page is not recycled underneath it.
func (ix *Index) pinEpoch() uint64 {
	if !ix.live.Load() {
		return 0
	}
	ix.lmu.Lock()
	tok := ix.epoch.Load() + 1
	ix.pins[tok]++
	ix.lmu.Unlock()
	return tok
}

// unpinEpoch releases a pin taken by pinEpoch. The zero token is a no-op.
func (ix *Index) unpinEpoch(tok uint64) {
	if tok == 0 {
		return
	}
	ix.lmu.Lock()
	if n := ix.pins[tok]; n <= 1 {
		delete(ix.pins, tok)
	} else {
		ix.pins[tok] = n - 1
	}
	ix.lmu.Unlock()
}

// reclaimRetired moves retired pages and extents that no reader can still
// reference — and that the last durable checkpoint does not depend on — to
// the tier-matching free list.
func (ix *Index) reclaimRetired() {
	ix.lmu.Lock()
	defer ix.lmu.Unlock()
	minPin := uint64(math.MaxUint64)
	for tok := range ix.pins {
		if e := tok - 1; e < minPin {
			minPin = e
		}
	}
	keep := ix.retired[:0]
	for _, r := range ix.retired {
		switch {
		case minPin < r.epoch:
			keep = append(keep, r)
		case r.slots > 0:
			if ix.durableCold[r.page] {
				keep = append(keep, r)
			} else {
				ix.freeExtents = append(ix.freeExtents, extentRef{id: r.page, slots: r.slots})
			}
		default:
			if ix.durable[r.page] {
				keep = append(keep, r)
			} else {
				ix.freePages = append(ix.freePages, r.page)
			}
		}
	}
	ix.retired = keep
}

// retireExtent queues a superseded cold extent for epoch-safe reclamation: it
// becomes recyclable only once every reader pinned before the *next* epoch
// has drained (and the last durable checkpoint no longer references it). The
// conservative next-epoch bound covers callers that swap the directory
// without bumping the epoch themselves (the batch pull-back path).
func (ix *Index) retireExtent(ext extentRef) {
	ix.lmu.Lock()
	ix.retired = append(ix.retired, retiredPage{page: ext.id, slots: ext.slots, epoch: ix.epoch.Load() + 1})
	ix.lmu.Unlock()
}

// writeScratch writes buf to a page unreachable from the directory: a
// recycled free page when one is available, a fresh append otherwise. A
// failed write leaves the page on the free list — it stays unreachable, and
// the next recycle fully overwrites whatever the failure left behind.
//
//rased:pagewrite
func (ix *Index) writeScratch(buf []byte) (int, error) {
	page := -1
	ix.lmu.Lock()
	if n := len(ix.freePages); n > 0 {
		page = ix.freePages[n-1]
		ix.freePages = ix.freePages[:n-1]
	}
	ix.lmu.Unlock()
	if page >= 0 {
		if err := ix.store.WritePage(page, buf); err != nil {
			ix.lmu.Lock()
			ix.freePages = append(ix.freePages, page)
			ix.lmu.Unlock()
			return 0, err
		}
		return page, nil
	}
	return ix.store.Append(buf)
}

// recycleScratch returns staged-but-unpublished scratch pages to the free
// list after a failed publish. They were never reachable, so no epoch or
// durability accounting applies.
func (ix *Index) recycleScratch(pages []int) {
	if len(pages) == 0 {
		return
	}
	ix.lmu.Lock()
	ix.freePages = append(ix.freePages, pages...)
	ix.lmu.Unlock()
}

// recycleExtents returns staged-but-unpublished cold extents to the extent
// free list after a failed or stale compaction. Like recycleScratch, the
// extents were never reachable from the directory, so no epoch or durability
// accounting applies.
func (ix *Index) recycleExtents(exts []extentRef) {
	if len(exts) == 0 {
		return
	}
	ix.lmu.Lock()
	ix.freeExtents = append(ix.freeExtents, exts...)
	ix.lmu.Unlock()
}

// PublishEpoch atomically publishes a batch of cube images as one new epoch.
// Every cube is first written to a scratch page no reader can reach; only
// when all writes succeed are the new page ids swapped into the directory —
// together with day-coverage updates and quarantine release for rewritten
// periods — in a single critical section that also bumps the epoch. Readers
// therefore observe either the complete batch or none of it, which is what
// lets the fold path publish a day cube and its enclosing rollups as one
// consistent unit.
//
// New day periods must extend coverage consecutively, exactly like AppendDay.
// A failed scratch write aborts the publish with the directory untouched; the
// partially staged pages are recycled.
func (ix *Index) PublishEpoch(updates map[temporal.Period]*cube.Cube) (uint64, error) {
	if len(updates) == 0 {
		return ix.epoch.Load(), nil
	}
	ps := make([]temporal.Period, 0, len(updates))
	for p := range updates {
		if int(p.Level) >= ix.levels {
			return 0, fmt.Errorf("tindex: publish %v: index has %d levels", p, ix.levels)
		}
		ps = append(ps, p)
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].Level != ps[b].Level {
			return ps[a].Level < ps[b].Level
		}
		return ps[a].Index < ps[b].Index
	})

	// Validate coverage progression before staging any I/O. The publish path
	// is single-writer, so the check cannot be invalidated before the swap.
	ix.mu.RLock()
	empty, maxDay := ix.empty, ix.maxDay
	ix.mu.RUnlock()
	first := true
	cursor := maxDay
	for _, p := range ps {
		if p.Level != temporal.Daily {
			continue
		}
		d := p.Start()
		if !empty && d <= maxDay {
			continue // rewrite of a covered day
		}
		if empty && first {
			first = false
			cursor = d
			continue
		}
		if d != cursor+1 {
			return 0, fmt.Errorf("tindex: non-consecutive publish: have up to %v, got %v", cursor, d)
		}
		cursor = d
	}

	ix.reclaimRetired()

	newPages := make([]int, 0, len(ps))
	pb := ix.pool.GetBuf()
	defer ix.pool.PutBuf(pb)
	for _, p := range ps {
		buf, err := cube.MarshalPageInto(*pb, updates[p], p)
		if err == nil {
			var page int
			if page, err = ix.writeScratch(buf); err == nil {
				newPages = append(newPages, page)
				continue
			}
		}
		ix.recycleScratch(newPages)
		return 0, fmt.Errorf("tindex: publish %v: %w", p, err)
	}

	ix.mu.Lock()
	newEpoch := ix.epoch.Load() + 1
	var retiredNow []retiredPage
	for i, p := range ps {
		if old, ok := ix.pages[p]; ok && old != newPages[i] {
			retiredNow = append(retiredNow, retiredPage{page: old, epoch: newEpoch})
		}
		// A republished cold period migrates back to the hot tier: drop the
		// extent mapping in the same critical section so readers never see
		// both, and retire the extent under the new epoch.
		if e, wasCold := ix.extents[p]; wasCold {
			delete(ix.extents, p)
			retiredNow = append(retiredNow, retiredPage{page: e.id, slots: e.slots, epoch: newEpoch})
		}
		ix.pages[p] = newPages[i]
		delete(ix.quarantined, p)
		if p.Level == temporal.Daily {
			d := p.Start()
			if ix.empty {
				ix.minDay, ix.maxDay, ix.empty = d, d, false
			} else if d > ix.maxDay {
				ix.maxDay = d
			}
		}
	}
	// The epoch bump shares the directory critical section: a reader that
	// pins the new epoch can only look up after the swap completes, so a
	// pinned epoch is always a lower bound on the directory it observed.
	ix.epoch.Store(newEpoch)
	ix.mu.Unlock()

	if len(retiredNow) > 0 {
		ix.lmu.Lock()
		ix.retired = append(ix.retired, retiredNow...)
		ix.lmu.Unlock()
	}
	return newEpoch, nil
}
