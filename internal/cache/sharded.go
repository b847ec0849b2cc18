package cache

import (
	"container/list"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"rased/internal/cube"
	"rased/internal/temporal"
)

// Sharded is the demand-filled cube cache built for the concurrent executor:
// the slot budget is split across levels by the (α, β, γ, θ) allocation
// exactly as the preload policy does, and each level's budget is spread over
// a power-of-two number of independently locked LRU shards so parallel plan
// fetches stop serializing on a single cache mutex. Periods are spread across
// a level's shards by a Fibonacci hash of the period index.
//
// Hit/miss/eviction counts are kept as plain per-shard integers under the
// shard lock and merged into the shared obs counters only at snapshot points
// (Stats, ResetStats, and the residency gauge evaluated on every /metrics
// scrape), so the hot path never touches a cross-shard atomic. The exported
// series are the same rased_cache_* families as the preload policy's,
// distinguished by policy="sharded".
type Sharded struct {
	slots  int
	alloc  Allocation
	groups [temporal.NumLevels]shardGroup

	met *Metrics
}

// shardGroup is one level's set of shards. A power-of-two shard count lets
// the hash pick a shard with a shift instead of a modulo.
type shardGroup struct {
	shards []*shard
	shift  uint // 64 - log2(len(shards))
}

// lruEntry is one resident cube in a shard's recency list.
type lruEntry struct {
	p  temporal.Period
	cb *cube.Cube
	// epoch is the index epoch the cached content is known to be at least as
	// fresh as (0 for batch deployments, where cubes never change in place).
	// Live ingest republishes periods under new epochs; GetAtLeast treats an
	// entry below the required epoch as a miss so a refetch replaces it.
	epoch uint64
	// size is the cube's resident footprint (cube.ReaderBytes) at insert
	// time, charged against the byte budget.
	size int64
}

// shard is one independently locked LRU with its locally buffered stats.
type shard struct {
	capacity int

	mu      sync.Mutex
	order   *list.List // front = most recently used; values are *lruEntry
	entries map[int]*list.Element
	// byteBudget caps this shard's resident cube bytes (0 = unlimited);
	// bytes is the current total of entry sizes.
	byteBudget int64
	bytes      int64

	// Pending stat deltas, merged into the obs counters at snapshot time.
	hits, misses, evictions int64
}

// NewSharded returns an empty sharded cache with n slots split by alloc.
// shards caps the shard count per level (rounded up to a power of two; 0
// picks one shard per CPU); levels with small budgets use fewer shards so
// every shard keeps at least one slot.
func NewSharded(n int, alloc Allocation, shards int) (*Sharded, error) {
	if n < 0 {
		return nil, fmt.Errorf("cache: negative slot count %d", n)
	}
	if shards < 0 {
		return nil, fmt.Errorf("cache: negative shard count %d", shards)
	}
	if err := alloc.Validate(); err != nil {
		return nil, err
	}
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	shards = ceilPow2(shards)

	s := &Sharded{slots: n, alloc: alloc}
	budgets := alloc.SlotsFor(n)
	for lvl := 0; lvl < temporal.NumLevels; lvl++ {
		budget := budgets[temporal.Level(lvl)]
		count := shards
		if budget > 0 && count > floorPow2(budget) {
			count = floorPow2(budget)
		}
		if count < 1 {
			count = 1
		}
		g := &s.groups[lvl]
		g.shift = uint(64 - bits.TrailingZeros(uint(count)))
		if count == 1 {
			g.shift = 64 // unused; shardFor short-circuits
		}
		g.shards = make([]*shard, count)
		for i := range g.shards {
			per := budget / count
			if i < budget%count {
				per++
			}
			g.shards[i] = &shard{
				capacity: per,
				order:    list.New(),
				entries:  make(map[int]*list.Element),
			}
		}
	}
	s.met = newMetrics("sharded", s.snapshotLen)
	return s, nil
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// floorPow2 rounds n down to a power of two (minimum 1).
func floorPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

// shardFor picks the shard holding period index idx within a group.
func (g *shardGroup) shardFor(idx int) *shard {
	if len(g.shards) == 1 {
		return g.shards[0]
	}
	h := uint64(uint(idx)) * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return g.shards[h>>g.shift]
}

// Metrics returns the cache's obs instruments for registry wiring.
func (s *Sharded) Metrics() *Metrics { return s.met }

// Slots returns the cache capacity in cubes.
func (s *Sharded) Slots() int { return s.slots }

// Allocation returns the level split in use.
func (s *Sharded) Allocation() Allocation { return s.alloc }

// SetByteBudget caps the cache's resident cube bytes (0 = unlimited, the
// default). The budget splits across levels by the same (α, β, γ, θ)
// allocation as the slot capacity and evenly across each level's shards;
// shards already over their share evict immediately from the LRU end.
func (s *Sharded) SetByteBudget(n int64) {
	var budgets map[temporal.Level]int
	if n > 0 {
		budgets = s.alloc.SlotsFor(int(n))
	}
	for lvl := range s.groups {
		g := &s.groups[lvl]
		count := int64(len(g.shards))
		var levelBudget int64
		if n > 0 {
			levelBudget = int64(budgets[temporal.Level(lvl)])
		}
		for i, sh := range g.shards {
			per := int64(0)
			if n > 0 {
				per = levelBudget / count
				if int64(i) < levelBudget%count {
					per++
				}
			}
			sh.mu.Lock()
			sh.byteBudget = per
			sh.evictOverflow()
			sh.mu.Unlock()
		}
	}
}

// Bytes returns the resident cube bytes currently charged across all shards.
func (s *Sharded) Bytes() int64 {
	var n int64
	for lvl := range s.groups {
		for _, sh := range s.groups[lvl].shards {
			sh.mu.Lock()
			n += sh.bytes
			sh.mu.Unlock()
		}
	}
	return n
}

// Get returns the cached cube for p, marking it most recently used within
// its shard and recording a hit or miss.
func (s *Sharded) Get(p temporal.Period) (*cube.Cube, bool) {
	sh := s.groups[p.Level].shardFor(p.Index)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[p.Index]
	if !ok {
		sh.misses++
		return nil, false
	}
	sh.hits++
	sh.order.MoveToFront(el)
	return el.Value.(*lruEntry).cb, true
}

// Put inserts a cube for p, evicting the shard's least recently used entry
// at capacity. Evicted cubes are simply dropped: a decoded cube the cache
// adopted may still be in use by a query, so it falls to the garbage
// collector instead of returning to the page pool (see DESIGN.md, "Hot-path
// memory model"). Levels with a zero budget store nothing.
func (s *Sharded) Put(p temporal.Period, cb *cube.Cube) { s.PutEpoch(p, cb, 0) }

// PutCold inserts a cube at its shard's cold end — a quarter of the capacity
// up from the eviction point (InnoDB's midpoint insertion). Cubes pulled in
// by multi-page run reads enter here: a scan's pages age out by evicting each
// other instead of displacing the hot working set, while a page the workload
// actually revisits is promoted to the hot end by its next Get. An entry that
// is already cached is refreshed in place without promotion.
func (s *Sharded) PutCold(p temporal.Period, cb *cube.Cube) { s.PutColdEpoch(p, cb, 0) }

// insertCold places e a quarter of the capacity up from the back of order,
// walking at most capacity/4 links. A list shorter than that is all cold:
// the entry goes to the back and ages out first.
func insertCold(order *list.List, capacity int, e *lruEntry) *list.Element {
	pos := order.Back()
	for i := 0; i < capacity/4 && pos != nil; i++ {
		pos = pos.Prev()
	}
	if pos == nil {
		return order.PushBack(e)
	}
	return order.InsertAfter(e, pos)
}

// Contains reports residency without touching the counters or recency order
// (the level optimizer uses this to cost plans).
func (s *Sharded) Contains(p temporal.Period) bool {
	sh := s.groups[p.Level].shardFor(p.Index)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[p.Index]
	return ok
}

// Len returns the number of cubes currently held across all shards.
func (s *Sharded) Len() int {
	n := 0
	for lvl := range s.groups {
		for _, sh := range s.groups[lvl].shards {
			sh.mu.Lock()
			n += len(sh.entries)
			sh.mu.Unlock()
		}
	}
	return n
}

// snapshotLen backs the residency gauge: a scrape is a snapshot point, so the
// buffered shard stats are merged before the entry count is reported.
func (s *Sharded) snapshotLen() int {
	s.drain()
	return s.Len()
}

// drain merges the per-shard stat deltas into the obs counters.
func (s *Sharded) drain() {
	for lvl := range s.groups {
		var hits, misses, evictions int64
		for _, sh := range s.groups[lvl].shards {
			sh.mu.Lock()
			hits += sh.hits
			misses += sh.misses
			evictions += sh.evictions
			sh.hits, sh.misses, sh.evictions = 0, 0, 0
			sh.mu.Unlock()
		}
		if hits != 0 {
			s.met.Hits[lvl].Add(hits)
		}
		if misses != 0 {
			s.met.Misses[lvl].Add(misses)
		}
		if evictions != 0 {
			s.met.Evictions[lvl].Add(evictions)
		}
	}
}

// Stats merges pending shard deltas and returns hit/miss counters summed
// across levels.
func (s *Sharded) Stats() Stats {
	s.drain()
	return s.met.stats()
}

// ResetStats zeroes the hit/miss counters, discarding pending shard deltas
// with them.
func (s *Sharded) ResetStats() {
	s.drain()
	s.met.reset()
}
