package cache

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/temporal"
)

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(-1, DefaultAllocation, 4); err == nil {
		t.Error("negative slots should fail")
	}
	if _, err := NewSharded(10, Allocation{2, 0, 0, 0}, 4); err == nil {
		t.Error("bad allocation should fail")
	}
	if _, err := NewSharded(10, DefaultAllocation, -2); err == nil {
		t.Error("negative shard count should fail")
	}
}

func TestShardedLayout(t *testing.T) {
	s, err := NewSharded(100, DefaultAllocation, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots() != 100 {
		t.Errorf("Slots = %d", s.Slots())
	}
	budgets := DefaultAllocation.SlotsFor(100)
	for lvl := 0; lvl < temporal.NumLevels; lvl++ {
		g := &s.groups[lvl]
		n := len(g.shards)
		if n&(n-1) != 0 || n == 0 {
			t.Errorf("level %v: %d shards, want a power of two", temporal.Level(lvl), n)
		}
		total := 0
		for _, sh := range g.shards {
			total += sh.capacity
		}
		if want := budgets[temporal.Level(lvl)]; total != want {
			t.Errorf("level %v: shard capacities sum to %d, want %d", temporal.Level(lvl), total, want)
		}
	}
	// The yearly budget (5 of 100) cannot feed 8 shards; the group shrinks so
	// every shard keeps at least one slot.
	if n := len(s.groups[temporal.Yearly].shards); n > 4 {
		t.Errorf("yearly level kept %d shards for 5 slots", n)
	}
	// Non-power-of-two requests round up.
	s3, err := NewSharded(1000, DefaultAllocation, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s3.groups[temporal.Daily].shards); n != 4 {
		t.Errorf("shards=3 should round to 4, got %d", n)
	}
}

func testReader(t *testing.T) *cube.Cube {
	t.Helper()
	cb := cube.New(cube.ScaledSchema(3, 2))
	cb.Add(0, 0, 0, 0, 7)
	return cb
}

func TestShardedGetPutEvict(t *testing.T) {
	// All slots on the daily level so capacity math is easy to follow.
	s, err := NewSharded(4, Allocation{1, 0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rd := testReader(t)
	day := func(i int) temporal.Period { return temporal.Period{Level: temporal.Daily, Index: i} }

	if _, ok := s.Get(day(0)); ok {
		t.Error("empty cache should miss")
	}
	for i := 0; i < 4; i++ {
		s.Put(day(i), rd)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// Touch day 0 so it is most recently used, then overflow: day 1 is the
	// LRU victim.
	if _, ok := s.Get(day(0)); !ok {
		t.Error("day 0 should hit")
	}
	s.Put(day(4), rd)
	if s.Len() != 4 {
		t.Errorf("Len after eviction = %d, want 4", s.Len())
	}
	if s.Contains(day(1)) {
		t.Error("day 1 should have been evicted")
	}
	if !s.Contains(day(0)) || !s.Contains(day(4)) {
		t.Error("day 0 and day 4 should be resident")
	}
	// Re-putting an existing period replaces in place, no eviction.
	s.Put(day(0), rd)
	if s.Len() != 4 {
		t.Errorf("Len after re-put = %d", s.Len())
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	ev := s.Metrics().Evictions[temporal.Daily].Value()
	if ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	s.ResetStats()
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("after reset = %+v", st)
	}
}

func TestShardedZeroBudgetLevel(t *testing.T) {
	// All-daily allocation: the other levels get zero slots and must drop
	// puts while still counting the miss on get.
	s, err := NewSharded(8, Allocation{1, 0, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := temporal.Period{Level: temporal.Yearly, Index: 2021}
	s.Put(p, testReader(t))
	if s.Contains(p) {
		t.Error("zero-budget level should store nothing")
	}
	if _, ok := s.Get(p); ok {
		t.Error("zero-budget level should miss")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("stats = %+v, want one miss", st)
	}
}

func TestShardedContainsNoCounters(t *testing.T) {
	s, _ := NewSharded(8, DefaultAllocation, 2)
	s.Contains(temporal.Period{Level: temporal.Daily, Index: 1})
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Contains changed stats: %+v", st)
	}
}

// TestShardedConcurrentStress hammers every level's shards with mixed
// Get/Put/Contains traffic under -race and checks the hit+miss counters
// reconcile exactly with the number of Get calls issued.
func TestShardedConcurrentStress(t *testing.T) {
	s, err := NewSharded(64, DefaultAllocation, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := testReader(t)

	const (
		workers       = 8
		opsPerWorker  = 3000
		periodsPerLvl = 50 // larger than any level budget, forcing evictions
	)
	var wg sync.WaitGroup
	gets := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*2654435761 + 1))
			for i := 0; i < opsPerWorker; i++ {
				p := temporal.Period{
					Level: temporal.Level(rng.Intn(temporal.NumLevels)),
					Index: rng.Intn(periodsPerLvl),
				}
				switch rng.Intn(4) {
				case 0:
					s.Put(p, rd)
				case 1:
					s.Contains(p)
				default:
					if got, ok := s.Get(p); ok && got == nil {
						t.Error("hit returned nil reader")
					}
					gets[w]++
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		// Concurrent snapshots: drain must not lose or double-count deltas.
		for {
			select {
			case <-done:
				return
			default:
				s.Stats()
				s.Len()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(done)

	var wantGets int64
	for _, g := range gets {
		wantGets += g
	}
	st := s.Stats()
	if st.Hits+st.Misses != wantGets {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d gets", st.Hits, st.Misses, st.Hits+st.Misses, wantGets)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stress should see both hits and misses: %+v", st)
	}
	// Residency never exceeds the per-level budgets.
	budgets := DefaultAllocation.SlotsFor(64)
	total := 0
	for _, b := range budgets {
		total += b
	}
	if got := s.Len(); got > total {
		t.Errorf("Len = %d exceeds %d slots", got, total)
	}
}
