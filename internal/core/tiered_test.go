package core

// Tiered-storage engine tests: queries over a compacted (cold, compressed)
// index must be bit-identical to the same queries over the hot original, the
// coalesced fetch path must group cold extents into runs without crossing
// tiers, and the CacheBytes budget must bound demand-cache residency.

import (
	"context"
	"math/rand"
	"os"
	"testing"
	"time"

	"rased/internal/cube"
	"rased/internal/geo"
	"rased/internal/temporal"
	"rased/internal/tindex"
)

// buildTieredIndex creates a private index (the shared fixture must stay hot
// for the other tests) with deterministic synthetic cubes.
func buildTieredIndex(t *testing.T, days int) (*tindex.Index, temporal.Day, temporal.Day) {
	t.Helper()
	dir, err := os.MkdirTemp("", "rased-tiered-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	schema := cube.ScaledSchema(geo.Default().NumValues(), 25)
	ix, err := tindex.Create(dir, schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	lo := temporal.NewDay(2022, time.January, 1)
	de, dc, dr, du := schema.Dims()
	for i := 0; i < days; i++ {
		d := lo + temporal.Day(i)
		cb := cube.New(schema)
		rng := rand.New(rand.NewSource(int64(d)))
		for j := 0; j < 50; j++ {
			cb.Add(rng.Intn(de), rng.Intn(dc), rng.Intn(dr), rng.Intn(du), uint64(1+rng.Intn(4)))
		}
		if err := ix.AppendDay(d, cb); err != nil {
			t.Fatal(err)
		}
	}
	return ix, lo, lo + temporal.Day(days-1)
}

func TestQueriesIdenticalAcrossTiers(t *testing.T) {
	ix, lo, hi := buildTieredIndex(t, 45)
	queries := []Query{
		{From: lo, To: hi},
		{From: lo, To: hi, GroupBy: GroupBy{Country: true}},
		{From: lo + 7, To: hi - 3, GroupBy: GroupBy{Country: true, UpdateType: true}},
		{From: lo, To: hi, GroupBy: GroupBy{Date: ByWeek}},
	}
	opts := shardedOptions(64)

	hot, err := NewEngine(ix, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		if want[i], err = hot.Analyze(q); err != nil {
			t.Fatalf("hot query %d: %v", i, err)
		}
	}

	// Compact everything and query through a fresh engine (cold cache) so
	// every fetch — singleton and coalesced run alike — reads cold extents.
	var ps []temporal.Period
	for lvl := temporal.Daily; lvl <= temporal.Yearly; lvl++ {
		ps = append(ps, ix.Periods(lvl)...)
	}
	st, err := ix.CompactPeriods(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compacted != len(ps) {
		t.Fatalf("compacted %d of %d periods", st.Compacted, len(ps))
	}
	cold, err := NewEngine(ix, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		got, err := cold.Analyze(q)
		if err != nil {
			t.Fatalf("cold query %d: %v", i, err)
		}
		if got.Total != want[i].Total || len(got.Rows) != len(want[i].Rows) {
			t.Fatalf("cold query %d: total %d / %d rows, want %d / %d",
				i, got.Total, len(got.Rows), want[i].Total, len(want[i].Rows))
		}
		for j := range want[i].Rows {
			if got.Rows[j] != want[i].Rows[j] {
				t.Fatalf("cold query %d row %d = %+v, want %+v", i, j, got.Rows[j], want[i].Rows[j])
			}
		}
	}
}

func TestCacheBytesBoundsResidency(t *testing.T) {
	ix, lo, hi := buildTieredIndex(t, 30)
	opts := shardedOptions(1024)
	opts.CacheBytes = 256 * 1024 // far below 30 dense daily cubes
	e, err := NewEngine(ix, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(Query{From: lo, To: hi, GroupBy: GroupBy{Country: true}}); err != nil {
		t.Fatal(err)
	}
	if got := e.demand.Bytes(); got > opts.CacheBytes {
		t.Fatalf("resident cache bytes %d exceed budget %d", got, opts.CacheBytes)
	}

	// Validation: a byte budget without a demand cache is a config error.
	bad := DefaultOptions()
	bad.CacheBytes = 1 << 20
	if _, err := NewEngine(ix, bad); err == nil {
		t.Error("CacheBytes with the preload policy should be rejected")
	}
}
