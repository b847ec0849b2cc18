package cube

import (
	"fmt"
	"math/rand"
	"testing"

	"rased/internal/temporal"
)

// randomFilter draws one of: nil (full dimension), a random sublist, or an
// empty-after-clipping list with out-of-range values.
func randomFilter(rng *rand.Rand, dim int) []int {
	switch rng.Intn(4) {
	case 0, 1:
		return nil
	case 2:
		n := 1 + rng.Intn(3)
		out := make([]int, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, rng.Intn(dim))
		}
		return out
	default:
		return []int{dim + rng.Intn(3)} // clipped to nothing
	}
}

func mapsEqual(a, b map[Key]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TestAggregatePlanMatchesScalar cross-checks every kernel shape against the
// scalar reference on both reader implementations: identical totals AND
// identical result maps (including which keys exist).
func TestAggregatePlanMatchesScalar(t *testing.T) {
	s := ScaledSchema(6, 5)
	rng := rand.New(rand.NewSource(42))

	shapes := []struct {
		name string
		f    Filter
		g    GroupBy
	}{
		{"total", Filter{}, GroupBy{}},
		{"group-element", Filter{}, GroupBy{Element: true}},
		{"group-country", Filter{}, GroupBy{Country: true}},
		{"group-roadtype", Filter{}, GroupBy{RoadType: true}},
		{"group-update", Filter{}, GroupBy{Update: true}},
		{"filtered-total", Filter{Countries: []int{1, 3}}, GroupBy{}},
		{"single-cell", Filter{Elements: []int{1}, Countries: []int{2}, RoadTypes: []int{3}, UpdateTypes: []int{0}}, GroupBy{}},
		{"filtered-group", Filter{RoadTypes: []int{0, 2, 4}}, GroupBy{Country: true, Update: true}},
		{"all-grouped", Filter{}, GroupBy{true, true, true, true}},
		{"empty-filter", Filter{Elements: []int{99}}, GroupBy{Country: true}},
	}

	for trial := 0; trial < 5; trial++ {
		cb := randomCube(s, rng.Int63(), 500*trial) // trial 0: all-zero cube
		// The v2 encoder picks sparse for the emptier trials, so the second
		// reader is a SparseCube there and a decoded Cube otherwise.
		page := MarshalPageV2(cb, temporal.Period{Level: temporal.Daily, Index: trial})
		v2, _, err := UnmarshalPageReader(s, page, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range shapes {
			t.Run(fmt.Sprintf("%s/trial%d", tc.name, trial), func(t *testing.T) {
				want := make(map[Key]uint64)
				wantTotal := cb.AggregateInto(tc.f, tc.g, want)

				ap := CompileAgg(s, tc.f, tc.g)
				got := make(map[Key]uint64)
				if total := cb.AggregatePlanInto(ap, got); total != wantTotal {
					t.Errorf("cube kernel total = %d, scalar = %d", total, wantTotal)
				}
				if !mapsEqual(got, want) {
					t.Errorf("cube kernel map = %v, scalar = %v", got, want)
				}

				gotV2 := make(map[Key]uint64)
				if total := v2.AggregatePlanInto(ap, gotV2); total != wantTotal {
					t.Errorf("%T kernel total = %d, scalar = %d", v2, total, wantTotal)
				}
				if !mapsEqual(gotV2, want) {
					t.Errorf("%T kernel map = %v, scalar = %v", v2, gotV2, want)
				}
			})
		}
	}
}

// TestAggregatePlanRandomized hammers random filter/group combinations.
func TestAggregatePlanRandomized(t *testing.T) {
	s := ScaledSchema(5, 4)
	de, dc, dr, du := s.Dims()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		cb := randomCube(s, rng.Int63(), 100)
		f := Filter{
			Elements:    randomFilter(rng, de),
			Countries:   randomFilter(rng, dc),
			RoadTypes:   randomFilter(rng, dr),
			UpdateTypes: randomFilter(rng, du),
		}
		g := GroupBy{
			Element:  rng.Intn(2) == 0,
			Country:  rng.Intn(2) == 0,
			RoadType: rng.Intn(2) == 0,
			Update:   rng.Intn(2) == 0,
		}
		want := make(map[Key]uint64)
		wantTotal := cb.AggregateInto(f, g, want)
		ap := CompileAgg(s, f, g)
		got := make(map[Key]uint64)
		gotTotal := cb.AggregatePlanInto(ap, got)
		if gotTotal != wantTotal || !mapsEqual(got, want) {
			t.Fatalf("trial %d: filter %+v group %+v: kernel (total %d, %v) != scalar (total %d, %v)",
				trial, f, g, gotTotal, got, wantTotal, want)
		}
	}
}

// TestAggregatePlanAccumulates checks that repeated calls with the same dst
// accumulate across cubes exactly like the scalar loop does.
func TestAggregatePlanAccumulates(t *testing.T) {
	s := ScaledSchema(4, 3)
	rng := rand.New(rand.NewSource(9))
	cubes := []*Cube{randomCube(s, rng.Int63(), 80), randomCube(s, rng.Int63(), 80), randomCube(s, rng.Int63(), 80)}
	g := GroupBy{Country: true}

	want := make(map[Key]uint64)
	var wantTotal uint64
	for _, cb := range cubes {
		wantTotal += cb.AggregateInto(Filter{}, g, want)
	}
	ap := CompileAgg(s, Filter{}, g)
	got := make(map[Key]uint64)
	var gotTotal uint64
	for _, cb := range cubes {
		gotTotal += cb.AggregatePlanInto(ap, got)
	}
	if gotTotal != wantTotal || !mapsEqual(got, want) {
		t.Fatalf("accumulation diverged: kernel (%d, %v) vs scalar (%d, %v)", gotTotal, got, wantTotal, want)
	}
}

// TestAggregatePlanWrappedSum pins the kernels' key-presence semantics when
// sums wrap: the scalar loop creates a key for any nonzero cell even when the
// cell values sum to zero modulo 2^64, and the OR-tracking kernels must too.
func TestAggregatePlanWrappedSum(t *testing.T) {
	s := ScaledSchema(1, 1)
	cb := New(s)
	// Two cells that sum to exactly 2^64 (wraps to 0) in country 0's run.
	cb.Add(0, 0, 0, 0, 1<<63)
	cb.Add(0, 0, 0, 1, 1<<63)

	want := make(map[Key]uint64)
	wantTotal := cb.AggregateInto(Filter{}, GroupBy{Country: true}, want)
	ap := CompileAgg(s, Filter{}, GroupBy{Country: true})
	got := make(map[Key]uint64)
	gotTotal := cb.AggregatePlanInto(ap, got)
	if gotTotal != wantTotal || !mapsEqual(got, want) {
		t.Fatalf("wrapped sums: kernel (%d, %v) vs scalar (%d, %v)", gotTotal, got, wantTotal, want)
	}
	if len(got) != 1 {
		t.Fatalf("the wrapped-to-zero group key must still exist: %v", got)
	}
}

func TestUnmarshalPageInto(t *testing.T) {
	s := ScaledSchema(4, 3)
	rng := rand.New(rand.NewSource(3))
	src := randomCube(s, rng.Int63(), 300)
	want := temporal.Period{Level: temporal.Weekly, Index: 17}
	page := MarshalPage(src, want)

	// Decode into a dirty target: every cell must be overwritten.
	dst := New(s)
	for i := range dst.cells {
		dst.cells[i] = 0xDEAD
	}
	got, err := UnmarshalPageInto(s, dst, page, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("period = %v, want %v", got, want)
	}
	if !dst.Equal(src) {
		t.Error("decoded cells differ from source")
	}

	// Geometry mismatch must be rejected.
	if _, err := UnmarshalPageInto(s, New(ScaledSchema(2, 2)), page, true); err == nil {
		t.Error("mismatched target geometry should fail")
	}
	// Corruption is caught by the shared validation path.
	bad := append([]byte(nil), page...)
	bad[pageHeaderSize+8] ^= 0xFF
	if _, err := UnmarshalPageInto(s, dst, bad, true); err == nil {
		t.Error("corrupted payload should fail checksum")
	}
	if _, err := UnmarshalPageInto(s, dst, bad, false); err != nil {
		t.Errorf("verify=false should skip the checksum: %v", err)
	}

	// The zero-copy contract: decoding into an existing cube allocates
	// nothing, even with checksum verification on. The pooled fetch path
	// depends on this staying at zero.
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalPageInto(s, dst, page, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("UnmarshalPageInto allocates %v per call, want 0", allocs)
	}
}
