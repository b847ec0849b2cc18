package tindex

// Background compaction: migrating closed periods from the hot tier (dense
// fixed-size v1 pages in cubes.db) to the cold tier (compressed
// variable-length v2 extents in cubes_cold.db).
//
// The compactor is a second directory writer next to the live publish path,
// and it coordinates with it the same way PublishEpoch coordinates with
// readers: all staging I/O happens against storage no reader can reach
// (writeExtentScratch), and the directory swap is a single mu critical
// section that also bumps the epoch. Two rules keep the tiers from tearing:
//
//   - Staleness check: a period is only swapped cold if the hot page id the
//     compactor read is still the one in the directory. If a live publish
//     republished the period mid-compaction, the staged extent is silently
//     recycled — the fresher hot page wins. This makes compaction safe to
//     run concurrently with the single live writer without any shared lock
//     across the I/O.
//   - Epoch-safe retirement: the superseded hot pages retire under the new
//     epoch exactly like publish-retired pages, so a reader that resolved the
//     hot page id before the swap can still read it until its pin drains.
//
// The inverse migration (cold back to hot) happens implicitly: writeCube and
// PublishEpoch pull a rewritten period back into the hot tier and retire its
// extent (see tindex.go / epoch.go).

import (
	"context"
	"fmt"
	"sort"

	"rased/internal/cube"
	"rased/internal/temporal"
)

// CompactStats summarizes one compaction pass.
type CompactStats struct {
	Compacted      int   // periods migrated to the cold tier
	SkippedCold    int   // already cold — nothing to do
	SkippedMissing int   // absent or quarantined periods
	SkippedCorrupt int   // pages that failed validation on read (now quarantined)
	SkippedStale   int   // republished mid-compaction; the staged extent was discarded
	HotBytesFreed  int64 // bytes of hot pages retired by the pass
	ColdBytes      int64 // bytes of cold extents published by the pass
}

// TierStats reports where the index's live data resides. Hot/Cold cover only
// pages the directory currently references; the File figures include retired
// and free storage not yet reclaimed.
type TierStats struct {
	HotPages      int   // periods resident in the hot tier
	HotBytes      int64 // bytes those pages occupy (one fixed page each)
	ColdPages     int   // periods resident in the cold tier
	ColdSlots     int   // 4 KiB slots those extents span
	ColdBytes     int64 // bytes those extents occupy
	HotFileBytes  int64 // total hot store size, including free/retired pages
	ColdFileBytes int64 // total cold store size, including free/retired extents
}

// Tiers returns the current storage split between the hot and cold tiers.
func (ix *Index) Tiers() TierStats {
	pageSize := int64(ix.store.PageSize())
	ix.mu.RLock()
	st := TierStats{
		HotPages: len(ix.pages),
		HotBytes: int64(len(ix.pages)) * pageSize,
	}
	for _, e := range ix.extents {
		st.ColdPages++
		st.ColdSlots += e.slots
	}
	ix.mu.RUnlock()
	st.ColdBytes = int64(st.ColdSlots) * cube.PageAlign
	st.HotFileBytes = int64(ix.store.NumPages()) * pageSize
	st.ColdFileBytes = int64(ix.cold.NumPages()) * cube.PageAlign
	return st
}

// writeExtentScratch writes an encoded v2 page to a cold extent unreachable
// from the directory: a recycled free extent of exactly the right size when
// one exists, a fresh append otherwise. A failed write returns the extent to
// the free list — it stays unreachable, and the next recycle fully
// overwrites whatever the failure left behind.
//
//rased:pagewrite
func (ix *Index) writeExtentScratch(buf []byte) (extentRef, error) {
	slots := len(buf) / cube.PageAlign
	ext := extentRef{id: -1}
	ix.lmu.Lock()
	for i, f := range ix.freeExtents {
		if f.slots == slots {
			ext = f
			last := len(ix.freeExtents) - 1
			ix.freeExtents[i] = ix.freeExtents[last]
			ix.freeExtents = ix.freeExtents[:last]
			break
		}
	}
	ix.lmu.Unlock()
	if ext.id >= 0 {
		if err := ix.cold.WriteExtent(ext.id, buf); err != nil {
			ix.lmu.Lock()
			ix.freeExtents = append(ix.freeExtents, ext)
			ix.lmu.Unlock()
			return extentRef{}, err
		}
		return ext, nil
	}
	id, n, err := ix.cold.AppendExtent(buf)
	if err != nil {
		return extentRef{}, err
	}
	return extentRef{id: id, slots: n}, nil
}

// stagedCompaction is one period's rewrite waiting for the directory swap.
type stagedCompaction struct {
	p       temporal.Period
	hotPage int // the hot page the rewrite was read from (staleness witness)
	ext     extentRef
}

// CompactPeriods rewrites the given hot periods into compressed cold extents
// off the query path. Each period's page is read back with full verification,
// re-encoded with the smallest v2 encoding, and staged to scratch extents;
// the tier migration is then published as one epoch through the same swap
// discipline as PublishEpoch, so concurrent readers observe each period in
// exactly one tier. Safe to run concurrently with queries and with the live
// publish path: a period republished mid-compaction keeps its fresh hot page
// and the staged extent is recycled.
//
// Periods that are already cold, absent, or quarantined are skipped and
// counted, not errors: the compactor is a background janitor, and the
// directory is free to change underneath it. Corrupt pages discovered during
// read-back are quarantined exactly as a fetch would — compaction never
// migrates a page it could not verify.
//
// Calling CompactPeriods switches the index into live mode (EnableLive): the
// epoch pin machinery is what makes retiring the superseded hot pages safe.
func (ix *Index) CompactPeriods(ctx context.Context, ps []temporal.Period) (CompactStats, error) {
	var st CompactStats
	if len(ps) == 0 {
		return st, nil
	}
	ix.EnableLive()
	ix.reclaimRetired()

	pb := ix.pool.GetBuf()
	defer ix.pool.PutBuf(pb)
	eb := ix.pool.GetBuf()
	defer ix.pool.PutBuf(eb)
	cb := ix.pool.GetCube()
	defer ix.pool.PutCube(cb)

	staged := make([]stagedCompaction, 0, len(ps))
	recycleStaged := func() {
		exts := make([]extentRef, len(staged))
		for i, s := range staged {
			exts[i] = s.ext
		}
		ix.recycleExtents(exts)
	}
	for _, p := range ps {
		if err := ctx.Err(); err != nil {
			recycleStaged()
			return st, err
		}
		ref, _, err := ix.lookup(p)
		switch {
		case err != nil:
			st.SkippedMissing++
			continue
		case ref.cold:
			st.SkippedCold++
			continue
		}
		buf := (*pb)[:ix.refLen(ref)]
		if err := ix.retryRead(ctx, func() error { return ix.readRef(ctx, ref, buf) }); err != nil {
			recycleStaged()
			return st, fmt.Errorf("tindex: compact %v: %w", p, err)
		}
		// Always verify before migrating: the hot page is about to be
		// retired, so this is the last chance to catch rot while the dense
		// original still exists.
		got, err := cube.UnmarshalPageInto(ix.schema, cb, buf, true)
		if err != nil {
			_ = ix.decodeErr(p, ref.id, err) // quarantines
			st.SkippedCorrupt++
			continue
		}
		if got != p {
			_ = ix.mismatchErr(p, got, ref.id) // quarantines
			st.SkippedCorrupt++
			continue
		}
		out, err := cube.MarshalPageV2Into(*eb, cb, p)
		if err != nil {
			recycleStaged()
			return st, fmt.Errorf("tindex: compact %v: %w", p, err)
		}
		ext, err := ix.writeExtentScratch(out)
		if err != nil {
			recycleStaged()
			return st, fmt.Errorf("tindex: compact %v: %w", p, err)
		}
		staged = append(staged, stagedCompaction{p: p, hotPage: ref.id, ext: ext})
	}
	if len(staged) == 0 {
		return st, nil
	}

	pageSize := int64(ix.store.PageSize())
	ix.mu.Lock()
	newEpoch := ix.epoch.Load() + 1
	var retiredNow []retiredPage
	var staleExts []extentRef
	for _, s := range staged {
		if cur, ok := ix.pages[s.p]; !ok || cur != s.hotPage {
			// A live publish (or a batch rewrite) replaced this period while
			// we were staging: the rewrite is stale, the fresh page wins.
			staleExts = append(staleExts, s.ext)
			st.SkippedStale++
			continue
		}
		delete(ix.pages, s.p)
		ix.extents[s.p] = s.ext
		retiredNow = append(retiredNow, retiredPage{page: s.hotPage, epoch: newEpoch})
		st.Compacted++
		st.HotBytesFreed += pageSize
		st.ColdBytes += int64(s.ext.slots) * cube.PageAlign
	}
	if len(retiredNow) > 0 {
		// Same discipline as PublishEpoch: the bump shares the directory
		// critical section so a pinned epoch is a lower bound on the
		// directory the reader observed.
		ix.epoch.Store(newEpoch)
	}
	ix.mu.Unlock()

	if len(retiredNow) > 0 {
		ix.lmu.Lock()
		ix.retired = append(ix.retired, retiredNow...)
		ix.lmu.Unlock()
	}
	ix.recycleExtents(staleExts)
	return st, nil
}

// CompactBefore compacts every hot period that ends strictly before the
// cutoff day — the "closed, no longer written" portion of the index. The
// live day and any rollup still covering it stay hot.
func (ix *Index) CompactBefore(ctx context.Context, cutoff temporal.Day) (CompactStats, error) {
	ix.mu.RLock()
	ps := make([]temporal.Period, 0, len(ix.pages))
	for p := range ix.pages {
		if p.End() < cutoff {
			ps = append(ps, p)
		}
	}
	ix.mu.RUnlock()
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].Level != ps[b].Level {
			return ps[a].Level < ps[b].Level
		}
		return ps[a].Index < ps[b].Index
	})
	return ix.CompactPeriods(ctx, ps)
}

// IsCold reports whether period p currently resides in the cold tier.
func (ix *Index) IsCold(p temporal.Period) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.extents[p]
	return ok
}
