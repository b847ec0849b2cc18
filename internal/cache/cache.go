// Package cache implements RASED's caching strategy (Section VII-A): given N
// memory slots, the most recent αN daily, βN weekly, γN monthly, and θN
// yearly cubes are pinned in memory, trading aggregation granularity against
// time coverage. Queries over recent data are then answered partially or
// fully without disk I/O.
package cache

import (
	"fmt"
	"sort"
	"sync"

	"rased/internal/cube"
	"rased/internal/temporal"
)

// Allocation is the (α, β, γ, θ) split of cache slots across the four index
// levels. The four ratios must be non-negative and sum to 1.
type Allocation struct {
	Alpha float64 // daily
	Beta  float64 // weekly
	Gamma float64 // monthly
	Theta float64 // yearly
}

// DefaultAllocation is the paper's deployed setting: α=0.4, β=0.35, γ=0.2,
// θ=0.05.
var DefaultAllocation = Allocation{Alpha: 0.4, Beta: 0.35, Gamma: 0.2, Theta: 0.05}

// Validate checks the allocation invariants.
func (a Allocation) Validate() error {
	for _, v := range []float64{a.Alpha, a.Beta, a.Gamma, a.Theta} {
		if v < 0 {
			return fmt.Errorf("cache: negative allocation ratio %v", a)
		}
	}
	sum := a.Alpha + a.Beta + a.Gamma + a.Theta
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("cache: allocation ratios sum to %g, want 1", sum)
	}
	return nil
}

// SlotsFor returns the number of slots each level receives out of n. Every
// slot is assigned: each level gets the floor of its exact share and the
// remainder is distributed by largest fractional part, ties broken
// daily-first (finer levels are the hotter working set), so the split is
// deterministic and the per-level counts always sum to n.
func (a Allocation) SlotsFor(n int) map[temporal.Level]int {
	ratios := [temporal.NumLevels]float64{a.Alpha, a.Beta, a.Gamma, a.Theta}
	out := make(map[temporal.Level]int, temporal.NumLevels)
	used := 0
	var fracs [temporal.NumLevels]struct {
		lvl  temporal.Level
		frac float64
	}
	for i, r := range ratios {
		exact := r * float64(n)
		base := int(exact)
		if base > n {
			base = n
		}
		lvl := temporal.Level(i)
		out[lvl] = base
		used += base
		fracs[i].lvl = lvl
		fracs[i].frac = exact - float64(base)
	}
	sort.SliceStable(fracs[:], func(i, j int) bool { return fracs[i].frac > fracs[j].frac })
	for i := 0; used < n && i < len(fracs); i++ {
		out[fracs[i].lvl]++
		used++
	}
	// Ratio sums are validated to within ±0.001 of 1, so floating error can
	// overshoot by at most one slot; trim from the smallest fractional share.
	for i := len(fracs) - 1; used > n && i >= 0; i-- {
		if out[fracs[i].lvl] > 0 {
			out[fracs[i].lvl]--
			used--
		}
	}
	return out
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	Hits   int64
	Misses int64
}

// Source lists and fetches cubes for Preload; *tindex.Index satisfies it.
type Source interface {
	Periods(lvl temporal.Level) []temporal.Period
	Fetch(p temporal.Period) (*cube.Cube, error)
}

// Cache pins recent cubes in memory per the allocation policy.
type Cache struct {
	slots int
	alloc Allocation

	mu      sync.RWMutex
	entries map[temporal.Period]*cube.Cube

	met *Metrics
}

// New returns an empty cache with n slots and the given allocation.
func New(n int, alloc Allocation) (*Cache, error) {
	if n < 0 {
		return nil, fmt.Errorf("cache: negative slot count %d", n)
	}
	if err := alloc.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		slots:   n,
		alloc:   alloc,
		entries: make(map[temporal.Period]*cube.Cube),
	}
	c.met = newMetrics("preload", c.Len)
	return c, nil
}

// Metrics returns the cache's obs instruments for registry wiring.
func (c *Cache) Metrics() *Metrics { return c.met }

// Slots returns the cache capacity in cubes.
func (c *Cache) Slots() int { return c.slots }

// Allocation returns the level split in use.
func (c *Cache) Allocation() Allocation { return c.alloc }

// Len returns the number of cubes currently pinned.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Preload replaces the cache contents with the most recent cubes of each
// level, αN/βN/γN/θN respectively, fetched from src. Levels with fewer
// available cubes than their budget simply contribute what exists.
func (c *Cache) Preload(src Source) error {
	fresh := make(map[temporal.Period]*cube.Cube)
	for lvl, budget := range c.alloc.SlotsFor(c.slots) {
		if budget == 0 {
			continue
		}
		periods := src.Periods(lvl)
		if len(periods) > budget {
			periods = periods[len(periods)-budget:] // most recent
		}
		for _, p := range periods {
			cb, err := src.Fetch(p)
			if err != nil {
				return fmt.Errorf("cache: preload %v: %w", p, err)
			}
			fresh[p] = cb
		}
	}
	c.mu.Lock()
	old := c.entries
	c.entries = fresh
	c.mu.Unlock()
	// Cubes that were resident and did not survive the re-preload were
	// evicted by the recency policy.
	for p := range old {
		if _, kept := fresh[p]; !kept {
			c.met.Evictions[p.Level].Inc()
		}
	}
	return nil
}

// Get returns the cached cube for p, recording a hit or miss.
func (c *Cache) Get(p temporal.Period) (*cube.Cube, bool) {
	c.mu.RLock()
	cb, ok := c.entries[p]
	c.mu.RUnlock()
	if ok {
		c.met.Hits[p.Level].Inc()
	} else {
		c.met.Misses[p.Level].Inc()
	}
	return cb, ok
}

// Contains reports whether p is cached without touching the hit/miss
// counters; the level optimizer uses this to cost plans.
func (c *Cache) Contains(p temporal.Period) bool {
	c.mu.RLock()
	_, ok := c.entries[p]
	c.mu.RUnlock()
	return ok
}

// Invalidate drops the cube for p (after a monthly rebuild refreshed it on
// disk).
func (c *Cache) Invalidate(p temporal.Period) {
	c.mu.Lock()
	_, present := c.entries[p]
	delete(c.entries, p)
	c.mu.Unlock()
	if present {
		c.met.Evictions[p.Level].Inc()
	}
}

// Stats returns hit/miss counters summed across levels.
func (c *Cache) Stats() Stats { return c.met.stats() }

// ResetStats zeroes the hit/miss counters.
func (c *Cache) ResetStats() { c.met.reset() }
