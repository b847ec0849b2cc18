package cache

import (
	"fmt"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/temporal"
)

// fakeSource serves synthetic cubes for a fixed coverage window.
type fakeSource struct {
	schema  *cube.Schema
	periods map[temporal.Level][]temporal.Period
	fetched []temporal.Period
	fail    bool
}

func newFakeSource(days int) *fakeSource {
	s := &fakeSource{
		schema:  cube.ScaledSchema(5, 4),
		periods: make(map[temporal.Level][]temporal.Period),
	}
	lo := temporal.NewDay(2021, time.January, 1)
	hi := lo + temporal.Day(days-1)
	s.periods[temporal.Daily] = temporal.PeriodsBetween(temporal.Daily, lo, hi)
	for _, lvl := range []temporal.Level{temporal.Weekly, temporal.Monthly, temporal.Yearly} {
		for _, p := range temporal.PeriodsBetween(lvl, lo, hi) {
			if p.Start() >= lo && p.End() <= hi {
				s.periods[lvl] = append(s.periods[lvl], p)
			}
		}
	}
	return s
}

func (s *fakeSource) Periods(lvl temporal.Level) []temporal.Period { return s.periods[lvl] }

func (s *fakeSource) Fetch(p temporal.Period) (*cube.Cube, error) {
	if s.fail {
		return nil, fmt.Errorf("fake failure")
	}
	s.fetched = append(s.fetched, p)
	cb := cube.New(s.schema)
	cb.Add(0, 0, 0, 0, uint64(p.Index)+1)
	return cb, nil
}

// day returns the i-th daily period of the fake source's window.
func day(i int) temporal.Period {
	return temporal.DayPeriod(temporal.NewDay(2021, time.January, 1) + temporal.Day(i))
}

func TestAllocationValidate(t *testing.T) {
	if err := DefaultAllocation.Validate(); err != nil {
		t.Errorf("default allocation invalid: %v", err)
	}
	if err := (Allocation{0.5, 0.5, 0.5, 0.5}).Validate(); err == nil {
		t.Error("sum 2 should fail")
	}
	if err := (Allocation{-0.1, 0.6, 0.3, 0.2}).Validate(); err == nil {
		t.Error("negative ratio should fail")
	}
	if err := (Allocation{1, 0, 0, 0}).Validate(); err != nil {
		t.Errorf("all-daily allocation should be valid: %v", err)
	}
}

func TestSlotsFor(t *testing.T) {
	slots := DefaultAllocation.SlotsFor(100)
	if slots[temporal.Daily] != 40 || slots[temporal.Weekly] != 35 ||
		slots[temporal.Monthly] != 20 || slots[temporal.Yearly] != 5 {
		t.Errorf("slots = %v", slots)
	}
}

func TestSlotsForSum(t *testing.T) {
	// int(ratio*n) truncation used to strand slots (n=10 assigned only 9);
	// the largest-remainder distribution must hand out every slot.
	allocs := []Allocation{
		DefaultAllocation,
		{0.25, 0.25, 0.25, 0.25},
		{1, 0, 0, 0},
		{0.7, 0.1, 0.1, 0.1},
		{0.33, 0.33, 0.33, 0.01},
	}
	for _, alloc := range allocs {
		for n := 1; n <= 100; n++ {
			slots := alloc.SlotsFor(n)
			sum := 0
			for lvl, got := range slots {
				if got < 0 {
					t.Fatalf("alloc %+v n=%d: level %v got %d slots", alloc, n, lvl, got)
				}
				sum += got
			}
			if sum != n {
				t.Errorf("alloc %+v n=%d: slots sum to %d: %v", alloc, n, sum, slots)
			}
		}
	}
}

func TestSlotsForDeterministicRemainder(t *testing.T) {
	// n=10 with the default split: floors are 4/3/2/0 leaving one slot; the
	// weekly and yearly fractions tie at 0.5 and the daily-first tie-break
	// hands the slot to the finer level.
	slots := DefaultAllocation.SlotsFor(10)
	want := map[temporal.Level]int{
		temporal.Daily: 4, temporal.Weekly: 4, temporal.Monthly: 2, temporal.Yearly: 0,
	}
	for lvl, w := range want {
		if slots[lvl] != w {
			t.Errorf("SlotsFor(10)[%v] = %d, want %d (full: %v)", lvl, slots[lvl], w, slots)
		}
	}
	// Exact ties break daily-first.
	slots = (Allocation{0.25, 0.25, 0.25, 0.25}).SlotsFor(2)
	if slots[temporal.Daily] != 1 || slots[temporal.Weekly] != 1 ||
		slots[temporal.Monthly] != 0 || slots[temporal.Yearly] != 0 {
		t.Errorf("tie-break should favor finer levels: %v", slots)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, DefaultAllocation); err == nil {
		t.Error("negative slots should fail")
	}
	if _, err := New(10, Allocation{2, 0, 0, 0}); err == nil {
		t.Error("bad allocation should fail")
	}
}

func TestPreloadPicksMostRecent(t *testing.T) {
	src := newFakeSource(90) // Jan 1 - Mar 31 2021
	c, err := New(20, DefaultAllocation)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(src); err != nil {
		t.Fatal(err)
	}
	// Budgets: 8 daily, 7 weekly, 4 monthly, 1 yearly (yearly unavailable).
	days := src.periods[temporal.Daily]
	for _, p := range days[len(days)-8:] {
		if !c.Contains(p) {
			t.Errorf("recent day %v should be cached", p)
		}
	}
	if c.Contains(days[0]) {
		t.Error("oldest day should not be cached")
	}
	weeks := src.periods[temporal.Weekly]
	for _, p := range weeks[len(weeks)-7:] {
		if !c.Contains(p) {
			t.Errorf("recent week %v should be cached", p)
		}
	}
	months := src.periods[temporal.Monthly]
	for _, p := range months {
		// Only 3 months exist, budget 4: all cached.
		if !c.Contains(p) {
			t.Errorf("month %v should be cached", p)
		}
	}
	if got := c.Len(); got != 8+7+3 {
		t.Errorf("cache len = %d, want 18", got)
	}
}

func TestGetHitMissStats(t *testing.T) {
	src := newFakeSource(30)
	c, _ := New(10, Allocation{1, 0, 0, 0})
	if err := c.Preload(src); err != nil {
		t.Fatal(err)
	}
	days := src.periods[temporal.Daily]
	if _, ok := c.Get(days[len(days)-1]); !ok {
		t.Error("recent day should hit")
	}
	if _, ok := c.Get(days[0]); ok {
		t.Error("old day should miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	c.ResetStats()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("after reset = %+v", st)
	}
	// Contains must not touch the counters.
	c.Contains(days[0])
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Contains changed stats: %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	src := newFakeSource(30)
	c, _ := New(10, Allocation{1, 0, 0, 0})
	c.Preload(src)
	days := src.periods[temporal.Daily]
	p := days[len(days)-1]
	if !c.Contains(p) {
		t.Fatal("precondition: cached")
	}
	c.Invalidate(p)
	if c.Contains(p) {
		t.Error("invalidated period still cached")
	}
}

func TestPreloadErrorPropagates(t *testing.T) {
	src := newFakeSource(30)
	src.fail = true
	c, _ := New(10, Allocation{1, 0, 0, 0})
	if err := c.Preload(src); err == nil {
		t.Error("fetch failure should propagate")
	}
}

func TestZeroSlotCache(t *testing.T) {
	src := newFakeSource(30)
	c, err := New(0, DefaultAllocation)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(src); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Error("zero-slot cache should stay empty")
	}
}
