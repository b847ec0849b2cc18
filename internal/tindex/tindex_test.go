package tindex

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/temporal"
)

func testSchema() *cube.Schema { return cube.ScaledSchema(10, 6) }

// dayCube builds a deterministic cube for day d with total count derived from
// the day number, so rollup sums are checkable.
func dayCube(s *cube.Schema, d temporal.Day) *cube.Cube {
	cb := cube.New(s)
	rng := rand.New(rand.NewSource(int64(d)))
	de, dc, dr, du := s.Dims()
	n := 1 + int(d)%7
	for i := 0; i < n; i++ {
		cb.Add(rng.Intn(de), rng.Intn(dc), rng.Intn(dr), rng.Intn(du), 1)
	}
	return cb
}

func create(t *testing.T, levels int) *Index {
	t.Helper()
	ix, err := Create(t.TempDir(), testSchema(), levels)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func appendRange(t *testing.T, ix *Index, lo, hi temporal.Day) {
	t.Helper()
	for d := lo; d <= hi; d++ {
		if err := ix.AppendDay(d, dayCube(ix.Schema(), d)); err != nil {
			t.Fatalf("append %v: %v", d, err)
		}
	}
}

func TestCreateValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testSchema(), 0); err == nil {
		t.Error("levels 0 should fail")
	}
	if _, err := Create(dir, testSchema(), 5); err == nil {
		t.Error("levels 5 should fail")
	}
	ix, err := Create(dir, testSchema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if _, err := Create(dir, testSchema(), 4); err == nil {
		t.Error("double create should fail")
	}
}

func TestAppendAndFetchDaily(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	hi := temporal.NewDay(2021, time.January, 10)
	appendRange(t, ix, lo, hi)

	cLo, cHi, ok := ix.Coverage()
	if !ok || cLo != lo || cHi != hi {
		t.Errorf("coverage = [%v, %v, %v]", cLo, cHi, ok)
	}
	for d := lo; d <= hi; d++ {
		got, err := ix.Fetch(temporal.DayPeriod(d))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(dayCube(ix.Schema(), d)) {
			t.Errorf("day %v cube mismatch", d)
		}
	}
	if _, err := ix.Fetch(temporal.DayPeriod(hi + 1)); err == nil {
		t.Error("fetch of missing period should fail")
	}
}

func TestNonConsecutiveAppendRejected(t *testing.T) {
	ix := create(t, 4)
	d := temporal.NewDay(2021, time.March, 1)
	if err := ix.AppendDay(d, dayCube(ix.Schema(), d)); err != nil {
		t.Fatal(err)
	}
	if err := ix.AppendDay(d+5, dayCube(ix.Schema(), d+5)); err == nil {
		t.Error("gap append should fail")
	}
	if err := ix.AppendDay(d, dayCube(ix.Schema(), d)); err == nil {
		t.Error("duplicate append should fail")
	}
}

func TestRollups(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	hi := temporal.NewDay(2021, time.February, 28)
	appendRange(t, ix, lo, hi)

	// Week 1 of January must equal the sum of its 7 days.
	w, _ := temporal.WeekPeriod(lo)
	want := cube.New(ix.Schema())
	for d := w.Start(); d <= w.End(); d++ {
		want.Merge(dayCube(ix.Schema(), d))
	}
	got, err := ix.Fetch(w)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("week rollup != sum of days")
	}

	// January must equal the sum of its days.
	m := temporal.MonthPeriod(lo)
	want = cube.New(ix.Schema())
	for d := m.Start(); d <= m.End(); d++ {
		want.Merge(dayCube(ix.Schema(), d))
	}
	got, err = ix.Fetch(m)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("month rollup != sum of days")
	}

	// No yearly cube yet (year incomplete), no March cubes.
	if ix.Has(temporal.Period{Level: temporal.Yearly, Index: 2021}) {
		t.Error("incomplete year should have no cube")
	}
	counts := ix.NumCubes()
	if counts[temporal.Daily] != 59 || counts[temporal.Weekly] != 8 || counts[temporal.Monthly] != 2 {
		t.Errorf("cube counts = %v", counts)
	}
}

func TestYearRollup(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	hi := temporal.NewDay(2021, time.December, 31)
	appendRange(t, ix, lo, hi)

	y := temporal.Period{Level: temporal.Yearly, Index: 2021}
	if !ix.Has(y) {
		t.Fatal("complete year should have a cube")
	}
	got, err := ix.Fetch(y)
	if err != nil {
		t.Fatal(err)
	}
	want := cube.New(ix.Schema())
	for d := lo; d <= hi; d++ {
		want.Merge(dayCube(ix.Schema(), d))
	}
	if !got.Equal(want) {
		t.Error("year rollup != sum of days")
	}
	counts := ix.NumCubes()
	if counts[temporal.Daily] != 365 || counts[temporal.Weekly] != 48 ||
		counts[temporal.Monthly] != 12 || counts[temporal.Yearly] != 1 {
		t.Errorf("cube counts = %v", counts)
	}
}

func TestLevelsLimitRollups(t *testing.T) {
	for levels, wantLevels := range map[int][]temporal.Level{
		1: {temporal.Daily},
		2: {temporal.Daily, temporal.Weekly},
		3: {temporal.Daily, temporal.Weekly, temporal.Monthly},
	} {
		ix := create(t, levels)
		appendRange(t, ix, temporal.NewDay(2021, time.January, 1), temporal.NewDay(2021, time.January, 31))
		counts := ix.NumCubes()
		for lvl := temporal.Daily; lvl <= temporal.Yearly; lvl++ {
			has := counts[lvl] > 0
			want := false
			for _, wl := range wantLevels {
				if wl == lvl {
					want = true
				}
			}
			if has != want {
				t.Errorf("levels=%d: level %v present=%v want=%v", levels, lvl, has, want)
			}
		}
	}
}

func TestMidWeekStartSkipsPartialParents(t *testing.T) {
	ix := create(t, 4)
	// Start on Jan 5: week 1 (Jan 1-7) is not fully covered, so no week-1
	// cube may be built even though Jan 7 ends it.
	lo := temporal.NewDay(2021, time.January, 5)
	appendRange(t, ix, lo, temporal.NewDay(2021, time.January, 31))
	w1, _ := temporal.WeekPeriod(temporal.NewDay(2021, time.January, 1))
	if ix.Has(w1) {
		t.Error("partially covered week must not get a cube")
	}
	w2, _ := temporal.WeekPeriod(temporal.NewDay(2021, time.January, 8))
	if !ix.Has(w2) {
		t.Error("fully covered week should get a cube")
	}
	if ix.Has(temporal.MonthPeriod(lo)) {
		t.Error("partially covered month must not get a cube")
	}
}

func TestMaintenanceIOBudget(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, temporal.NewDay(2021, time.December, 30))
	st := ix.Store()

	// Plain day: 1 write, 0 reads (paper: "only one I/O for daily cubes").
	st.ResetStats()
	d := temporal.NewDay(2021, time.December, 31)
	// Dec 31 is also end of month and year; measure a plain day first by
	// looking at history: use a fresh index mid-month instead.
	ix2 := create(t, 4)
	appendRange(t, ix2, lo, temporal.NewDay(2021, time.January, 9))
	ix2.Store().ResetStats()
	if err := ix2.AppendDay(temporal.NewDay(2021, time.January, 10), dayCube(ix2.Schema(), 0)); err != nil {
		t.Fatal(err)
	}
	if s := ix2.Store().Stats(); s.Reads != 0 || s.Writes != 1 {
		t.Errorf("plain day I/O = %+v, want 0 reads 1 write", s)
	}

	// End of week: 7 child reads + 2 writes <= 9 I/Os (paper budget ~8).
	ix2.Store().ResetStats()
	for dd := temporal.NewDay(2021, time.January, 11); dd <= temporal.NewDay(2021, time.January, 14); dd++ {
		if err := ix2.AppendDay(dd, dayCube(ix2.Schema(), dd)); err != nil {
			t.Fatal(err)
		}
	}
	s := ix2.Store().Stats()
	if s.Reads != 7 || s.Writes != 5 {
		t.Errorf("end-of-week I/O = %+v, want 7 reads 5 writes (4 days + week)", s)
	}

	// End of year on the big index: 12 month reads + day & year writes.
	st.ResetStats()
	if err := ix.AppendDay(d, dayCube(ix.Schema(), d)); err != nil {
		t.Fatal(err)
	}
	s = st.Stats()
	// Dec 31 is end of week? No: Dec 31 is a trailing day. It closes month
	// and year: month rollup reads 4 weeks + 3 trailing days, year reads 12
	// months.
	wantReads := int64(4 + 3 + 12)
	if s.Reads != wantReads {
		t.Errorf("end-of-year reads = %d, want %d", s.Reads, wantReads)
	}
	if s.Writes != 3 { // day + month + year
		t.Errorf("end-of-year writes = %d, want 3", s.Writes)
	}
}

func TestReplaceDaysRebuildsAncestors(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	hi := temporal.NewDay(2021, time.December, 31)
	appendRange(t, ix, lo, hi)

	// Refine March: replace its days with doubled cubes.
	m := temporal.MonthPeriod(temporal.NewDay(2021, time.March, 1))
	repl := make(map[temporal.Day]*cube.Cube)
	for d := m.Start(); d <= m.End(); d++ {
		c := dayCube(ix.Schema(), d)
		c.Merge(dayCube(ix.Schema(), d)) // double it
		repl[d] = c
	}
	if err := ix.ReplaceDays(repl); err != nil {
		t.Fatal(err)
	}

	got, err := ix.Fetch(m)
	if err != nil {
		t.Fatal(err)
	}
	want := cube.New(ix.Schema())
	for d := m.Start(); d <= m.End(); d++ {
		want.Merge(repl[d])
	}
	if !got.Equal(want) {
		t.Error("month not rebuilt from replaced days")
	}

	// Year must include the refined March.
	y, err := ix.Fetch(temporal.Period{Level: temporal.Yearly, Index: 2021})
	if err != nil {
		t.Fatal(err)
	}
	wantYear := cube.New(ix.Schema())
	for d := lo; d <= hi; d++ {
		if d >= m.Start() && d <= m.End() {
			wantYear.Merge(repl[d])
		} else {
			wantYear.Merge(dayCube(ix.Schema(), d))
		}
	}
	if !y.Equal(wantYear) {
		t.Error("year not rebuilt after month replacement")
	}

	// Unchanged months are untouched.
	feb := temporal.MonthPeriod(temporal.NewDay(2021, time.February, 1))
	fc, _ := ix.Fetch(feb)
	wantFeb := cube.New(ix.Schema())
	for d := feb.Start(); d <= feb.End(); d++ {
		wantFeb.Merge(dayCube(ix.Schema(), d))
	}
	if !fc.Equal(wantFeb) {
		t.Error("unrelated month changed")
	}
}

func TestReplaceDaysOutsideCoverage(t *testing.T) {
	ix := create(t, 4)
	appendRange(t, ix, temporal.NewDay(2021, time.January, 1), temporal.NewDay(2021, time.January, 10))
	repl := map[temporal.Day]*cube.Cube{
		temporal.NewDay(2022, time.January, 1): cube.New(ix.Schema()),
	}
	if err := ix.ReplaceDays(repl); err == nil {
		t.Error("replacing uncovered day should fail")
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	ix, err := Create(dir, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	lo := temporal.NewDay(2021, time.January, 1)
	hi := temporal.NewDay(2021, time.February, 28)
	for d := lo; d <= hi; d++ {
		if err := ix.AppendDay(d, dayCube(s, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	cLo, cHi, ok := ix2.Coverage()
	if !ok || cLo != lo || cHi != hi {
		t.Errorf("coverage after reopen = [%v, %v, %v]", cLo, cHi, ok)
	}
	m := temporal.MonthPeriod(lo)
	got, err := ix2.Fetch(m)
	if err != nil {
		t.Fatal(err)
	}
	want := cube.New(s)
	for d := m.Start(); d <= m.End(); d++ {
		want.Merge(dayCube(s, d))
	}
	if !got.Equal(want) {
		t.Error("month cube wrong after reopen")
	}
	// Appends continue where they left off.
	if err := ix2.AppendDay(hi+1, dayCube(s, hi+1)); err != nil {
		t.Fatal(err)
	}
}

// TestSetVerifyReads: the flag waives the checksum on the query fetch only;
// the build side's Fetch verifies regardless, because what it reads is merged
// into pages that get written back.
func TestSetVerifyReads(t *testing.T) {
	ix := create(t, 1)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, lo+3)
	p := temporal.DayPeriod(lo + 1)
	corruptOnDisk(t, ix, p)

	ix.SetVerifyReads(false)
	cb, err := fetchPooled(context.Background(), ix, p)
	if err != nil {
		t.Fatalf("unverified query fetch of a checksum-damaged page: %v", err)
	}
	ix.ReleasePooled(cb)
	if _, err := ix.Fetch(p); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("build-side Fetch must always verify, got %v", err)
	}
	ix.clearQuarantine(p)
	ix.SetVerifyReads(true)
	if _, err := fetchPooled(context.Background(), ix, p); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("verified query fetch = %v, want ErrCorruptPage", err)
	}
}

func TestPeriodsListing(t *testing.T) {
	ix := create(t, 4)
	if ix.Levels() != 4 {
		t.Errorf("Levels = %d", ix.Levels())
	}
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, temporal.NewDay(2021, time.February, 28))

	days := ix.Periods(temporal.Daily)
	if len(days) != 59 {
		t.Fatalf("daily periods = %d", len(days))
	}
	for i := 1; i < len(days); i++ {
		if days[i].Index <= days[i-1].Index {
			t.Fatal("periods not sorted")
		}
	}
	if days[0].Start() != lo {
		t.Errorf("first day = %v", days[0])
	}
	months := ix.Periods(temporal.Monthly)
	if len(months) != 2 {
		t.Errorf("monthly periods = %d", len(months))
	}
	if got := ix.Periods(temporal.Yearly); len(got) != 0 {
		t.Errorf("yearly periods = %d, want 0 (incomplete year)", len(got))
	}
}

func TestScrub(t *testing.T) {
	ix := create(t, 4)
	lo := temporal.NewDay(2021, time.January, 1)
	appendRange(t, ix, lo, temporal.NewDay(2021, time.January, 31))
	want := 31 + 4 + 1 // days + weeks + month
	if n, err := ix.Scrub(); err != nil || n != want {
		t.Fatalf("scrub = %d, %v; want %d pages", n, err, want)
	}

	// Corrupt one byte in the middle of page 3's payload: scrub must fail.
	buf := make([]byte, ix.Store().PageSize())
	if err := ix.Store().ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := ix.Store().WritePage(3, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Scrub(); err == nil {
		t.Error("scrub missed a torn page")
	}
}

func TestOpenWrongSchema(t *testing.T) {
	dir := t.TempDir()
	ix, err := Create(dir, testSchema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if _, err := Open(dir, cube.ScaledSchema(11, 6)); err == nil {
		t.Error("schema mismatch should fail")
	}
	if _, err := Open(t.TempDir(), testSchema()); err == nil {
		t.Error("open of empty dir should fail")
	}
}
