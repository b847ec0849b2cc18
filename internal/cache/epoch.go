package cache

// Epoch-aware variants of the demand-cache operations, used by live-ingest
// deployments. The index republishes a period's cube under a new epoch each
// time a fold lands; a cached reader decoded from the superseded page is
// still internally consistent (pages are immutable) but stale. Callers stamp
// each insert with the index epoch current when the page was read, and query
// paths demand a minimum epoch for live-updated periods, turning staleness
// into an ordinary cache miss.
//
// The stamp is a lower bound on content freshness: an entry stamped E holds
// content from epoch >= E, so a conservative (low) stamp can only cause an
// unnecessary refetch, never a stale read. The plain Put/PutCold/Get methods
// delegate here with epoch 0, which preserves batch-mode behavior exactly.

import (
	"rased/internal/cube"
	"rased/internal/temporal"
)

// GetAtLeast returns the cached cube for p if its stamp is at least minEpoch,
// marking it most recently used. An entry below minEpoch counts as a miss but
// is left in place: the caller's refetch overwrites it with fresher content.
//
//rased:hotpath
func (s *Sharded) GetAtLeast(p temporal.Period, minEpoch uint64) (*cube.Cube, bool) {
	sh := s.groups[p.Level].shardFor(p.Index)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[p.Index]
	if !ok || el.Value.(*lruEntry).epoch < minEpoch {
		sh.misses++
		return nil, false
	}
	sh.hits++
	sh.order.MoveToFront(el)
	return el.Value.(*lruEntry).cb, true
}

// PutEpoch is Put with a freshness stamp. An existing entry with a newer
// stamp is promoted but not overwritten — replacing fresher content with an
// older read would reintroduce the staleness GetAtLeast exists to prevent.
func (s *Sharded) PutEpoch(p temporal.Period, cb *cube.Cube, epoch uint64) {
	sh := s.groups[p.Level].shardFor(p.Index)
	if sh.capacity == 0 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[p.Index]; ok {
		e := el.Value.(*lruEntry)
		if epoch >= e.epoch {
			sz := int64(cube.ReaderBytes(cb))
			sh.bytes += sz - e.size
			e.cb, e.epoch, e.size = cb, epoch, sz
		}
		sh.order.MoveToFront(el)
		sh.evictOverflow()
		return
	}
	e := &lruEntry{p: p, cb: cb, epoch: epoch, size: int64(cube.ReaderBytes(cb))}
	sh.bytes += e.size
	sh.entries[p.Index] = sh.order.PushFront(e)
	sh.evictOverflow()
}

// PutColdEpoch is PutCold with a freshness stamp (see PutEpoch).
func (s *Sharded) PutColdEpoch(p temporal.Period, cb *cube.Cube, epoch uint64) {
	sh := s.groups[p.Level].shardFor(p.Index)
	if sh.capacity == 0 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[p.Index]; ok {
		e := el.Value.(*lruEntry)
		if epoch >= e.epoch {
			sz := int64(cube.ReaderBytes(cb))
			sh.bytes += sz - e.size
			e.cb, e.epoch, e.size = cb, epoch, sz
		}
		sh.evictOverflow()
		return
	}
	e := &lruEntry{p: p, cb: cb, epoch: epoch, size: int64(cube.ReaderBytes(cb))}
	sh.bytes += e.size
	sh.entries[p.Index] = insertCold(sh.order, sh.capacity, e)
	sh.evictOverflow()
}

// evictOverflow drops least-recently-used entries while the shard exceeds
// its slot capacity or its byte budget. Callers hold sh.mu.
func (sh *shard) evictOverflow() {
	for sh.order.Len() > 0 &&
		(sh.order.Len() > sh.capacity || (sh.byteBudget > 0 && sh.bytes > sh.byteBudget)) {
		victim := sh.order.Back()
		sh.order.Remove(victim)
		ve := victim.Value.(*lruEntry)
		delete(sh.entries, ve.p.Index)
		sh.bytes -= ve.size
		sh.evictions++
	}
}
