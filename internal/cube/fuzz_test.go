package cube

import (
	"testing"

	"rased/internal/temporal"
)

// FuzzUnmarshalPage: arbitrary bytes must never panic, and whatever passes
// validation must agree between the three decoders.
func FuzzUnmarshalPage(f *testing.F) {
	s := ScaledSchema(4, 3)
	good := MarshalPage(New(s), temporal.Period{Level: temporal.Daily, Index: 1})
	f.Add(good)
	f.Add(good[:50])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cb, p1, err1 := UnmarshalPage(s, data)
		rd, p2, err2 := UnmarshalPageReader(s, data, true)
		into := New(s)
		p3, err3 := UnmarshalPageInto(s, into, data, true)
		if (err1 == nil) != (err2 == nil) || (err1 == nil) != (err3 == nil) {
			t.Fatalf("decoders disagree: eager=%v reader=%v into=%v", err1, err2, err3)
		}
		if err1 != nil {
			return
		}
		if p1 != p2 || p1 != p3 {
			t.Fatalf("periods disagree: %v vs %v vs %v", p1, p2, p3)
		}
		if sp, ok := rd.(*SparseCube); ok {
			rd = sp.Materialize()
		}
		if !rd.(*Cube).Equal(cb) {
			t.Fatal("cells disagree between decoders")
		}
		if !into.Equal(cb) {
			t.Fatal("in-place decode disagrees with eager decode")
		}

		// Whatever decoded, the vectorized kernels must be bit-identical to
		// the scalar reference on it — totals and key presence both,
		// including cells large enough to wrap the sums.
		for _, g := range []GroupBy{{}, {Element: true}, {Country: true}, {RoadType: true}, {Update: true}} {
			want := make(map[Key]uint64)
			wantTotal := cb.AggregateInto(Filter{}, g, want)
			ap := CompileAgg(s, Filter{}, g)
			got := make(map[Key]uint64)
			if total := cb.AggregatePlanInto(ap, got); total != wantTotal {
				t.Fatalf("kernel total %d != scalar %d (group %+v)", total, wantTotal, g)
			}
			if len(got) != len(want) {
				t.Fatalf("kernel keys %v != scalar %v (group %+v)", got, want, g)
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("kernel[%v] = %d, want %d", k, got[k], v)
				}
			}
		}
	})
}
