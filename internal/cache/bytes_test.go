package cache

// Byte-budget test: the sharded cache accounts resident cube bytes via
// cube.ReaderBytes and evicts from each shard's LRU end when a budget is set.

import (
	"testing"

	"rased/internal/cube"
)

func TestShardedByteBudget(t *testing.T) {
	// One shard so the per-level budget split is deterministic.
	s, err := NewSharded(100, DefaultAllocation, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource(60)
	c0, _ := src.Fetch(day(0))
	per := int64(cube.ReaderBytes(c0))

	s.SetByteBudget(20 * per)
	for i := 0; i < 40; i++ {
		cb, _ := src.Fetch(day(i))
		s.Put(day(i), cb)
	}
	if got := s.Bytes(); got > 20*per {
		t.Fatalf("resident bytes %d exceed budget %d", got, 20*per)
	}
	if s.Len() == 0 {
		t.Fatal("budgeted cache must still hold entries")
	}
	// Dropping the budget to a sliver evicts down across shards.
	s.SetByteBudget(per)
	if got := s.Bytes(); got > per {
		t.Fatalf("after shrink: resident bytes %d exceed budget %d", got, per)
	}

	// Removing the budget restores slot-only behaviour, and re-putting a
	// resident period must not double-charge it.
	s.SetByteBudget(0)
	for i := 0; i < 6; i++ {
		cb, _ := src.Fetch(day(i))
		s.Put(day(i), cb)
	}
	before, n := s.Bytes(), s.Len()
	if n < 6 {
		t.Fatalf("unlimited budget: len = %d, want >= 6", n)
	}
	s.Put(day(0), c0)
	if got := s.Bytes(); got != before || s.Len() != n {
		t.Fatalf("re-put changed accounting: %d B / %d entries -> %d B / %d", before, n, got, s.Len())
	}
}
