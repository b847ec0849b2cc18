package cube

import (
	"math/rand"
	"testing"

	"rased/internal/temporal"
)

// paperCube builds a populated full-scale cube once per benchmark run.
func paperCube(b *testing.B) *Cube {
	b.Helper()
	s := DefaultSchema()
	cb := New(s)
	rng := rand.New(rand.NewSource(1))
	de, dc, dr, du := s.Dims()
	for i := 0; i < 200000; i++ {
		cb.Add(rng.Intn(de), rng.Intn(dc), rng.Intn(dr), rng.Intn(du), 1)
	}
	return cb
}

func BenchmarkAggregateFullCube(b *testing.B) {
	cb := paperCube(b)
	dst := make(map[Key]uint64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(dst)
		cb.AggregateInto(Filter{}, GroupBy{Country: true}, dst)
	}
}

func BenchmarkAggregateSingleCell(b *testing.B) {
	cb := paperCube(b)
	f := Filter{Elements: []int{1}, Countries: []int{10}, RoadTypes: []int{5}, UpdateTypes: []int{0}}
	dst := make(map[Key]uint64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(dst)
		cb.AggregateInto(f, GroupBy{}, dst)
	}
}

func BenchmarkAddRecordThroughput(b *testing.B) {
	s := DefaultSchema()
	cb := New(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.Add(i%3, i%300, i%150, i%4, 1)
	}
}

func BenchmarkMarshalPage(b *testing.B) {
	cb := paperCube(b)
	p := temporal.Period{Level: temporal.Daily, Index: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := MarshalPage(cb, p)
		if len(buf) == 0 {
			b.Fatal("empty page")
		}
	}
}

// benchAggPlan compares the scalar reference against the compiled kernels on
// the same query shape; the sub-benchmarks share one populated cube.
func benchAggPlan(b *testing.B, f Filter, g GroupBy) {
	cb := paperCube(b)
	dst := make(map[Key]uint64)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(dst)
			cb.AggregateInto(f, g, dst)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		ap := CompileAgg(cb.Schema(), f, g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(dst)
			cb.AggregatePlanInto(ap, dst)
		}
	})
}

func BenchmarkAggTotal(b *testing.B) {
	benchAggPlan(b, Filter{}, GroupBy{})
}

func BenchmarkAggGroupCountry(b *testing.B) {
	benchAggPlan(b, Filter{}, GroupBy{Country: true})
}

func BenchmarkAggGroupRoadType(b *testing.B) {
	benchAggPlan(b, Filter{}, GroupBy{RoadType: true})
}

func BenchmarkAggSingleCellPlan(b *testing.B) {
	benchAggPlan(b, Filter{Elements: []int{1}, Countries: []int{10}, RoadTypes: []int{5}, UpdateTypes: []int{0}}, GroupBy{})
}

// BenchmarkDecodePage contrasts the allocating decode against the pooled
// in-place decode: the latter is the cache-miss fetch path after this PR.
func BenchmarkDecodePage(b *testing.B) {
	cb := paperCube(b)
	s := cb.Schema()
	buf := MarshalPage(cb, temporal.Period{Level: temporal.Daily, Index: 1})
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := UnmarshalPage(s, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pp := NewPagePool(s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst := pp.GetCube()
			if _, err := UnmarshalPageInto(s, dst, buf, false); err != nil {
				b.Fatal(err)
			}
			pp.PutCube(dst)
		}
	})
}
