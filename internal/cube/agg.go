package cube

// AggPlan is a query's aggregation compiled once: the filter's value lists
// are resolved against the schema a single time (AggregateInto re-derives
// them per cube) and the filter/group-by shape is classified so common query
// forms dispatch to vectorized kernels instead of the scalar 4-level nested
// loop:
//
//   - unfiltered totals sum the cube as one flat slice scan;
//   - unfiltered single-dimension group-bys take strided partial sums over
//     contiguous cell runs, touching the result map once per group value
//     instead of once per cell;
//   - filtered ungrouped queries accumulate without any map traffic until the
//     single final write.
//
// Everything else falls back to a general loop with the precompiled lists,
// which is semantically identical to the scalar reference. All kernels
// produce bit-identical results to AggregateInto — including presence of
// map keys, which the scalar loop only creates for nonzero cells (kernels
// track an OR over the summed cells to reproduce that exactly).
//
// An AggPlan carries scratch buffers for the strided kernels, so a plan may
// be used by only one goroutine at a time. Compile one per query.
type AggPlan struct {
	g GroupBy

	es, cs, rs, us []int
	shape          aggShape

	partial, ors []uint64 // strided-kernel scratch, sized to the grouped dim

	// Per-dimension multiplicity masks, sized to the schema dims: cntE[e] is
	// how many times e appears in the resolved element list (an explicit
	// filter may repeat a value; the scalar loop honors each repetition).
	// SparseCube's single-pass kernel uses them to weight each stored cell.
	cntE, cntC, cntR, cntU []uint32
}

type aggShape int

const (
	aggGeneral       aggShape = iota // precompiled lists, scalar-equivalent loop
	aggTotal                         // no groups, no filters: flat slice sum
	aggFilteredTotal                 // no groups, some filters: loop without map traffic
	aggGroupElement                  // group by one dimension, no filters:
	aggGroupCountry                  // strided partial sums over contiguous
	aggGroupRoadType                 // cell runs
	aggGroupUpdate
)

// ungroupedKey is the single result key of a query with no grouped dimensions.
var ungroupedKey = Key{Element: -1, Country: -1, RoadType: -1, Update: -1}

// CompileAgg resolves f and g against schema s into an aggregation plan. The
// plan is only valid for readers carrying the same schema geometry.
func CompileAgg(s *Schema, f Filter, g GroupBy) *AggPlan {
	de, dc, dr, du := s.Dims()
	ap := &AggPlan{g: g}
	ap.es = values(f.Elements, de, nil)
	ap.cs = values(f.Countries, dc, nil)
	ap.rs = values(f.RoadTypes, dr, nil)
	ap.us = values(f.UpdateTypes, du, nil)
	ap.cntE = dimCounts(ap.es, de)
	ap.cntC = dimCounts(ap.cs, dc)
	ap.cntR = dimCounts(ap.rs, dr)
	ap.cntU = dimCounts(ap.us, du)

	// A nil filter list means the full dimension; an explicit list — even an
	// exhaustive one — keeps the general path so list order is honored
	// exactly as the scalar loop would.
	allFull := f.Elements == nil && f.Countries == nil && f.RoadTypes == nil && f.UpdateTypes == nil
	groups := 0
	for _, b := range []bool{g.Element, g.Country, g.RoadType, g.Update} {
		if b {
			groups++
		}
	}
	switch {
	case groups == 0 && allFull:
		ap.shape = aggTotal
	case groups == 0:
		ap.shape = aggFilteredTotal
	case groups == 1 && allFull:
		switch {
		case g.Element:
			ap.shape = aggGroupElement
		case g.Country:
			ap.shape = aggGroupCountry
			ap.partial = make([]uint64, dc)
			ap.ors = make([]uint64, dc)
		case g.RoadType:
			ap.shape = aggGroupRoadType
			ap.partial = make([]uint64, dr)
			ap.ors = make([]uint64, dr)
		default:
			ap.shape = aggGroupUpdate
			ap.partial = make([]uint64, du)
			ap.ors = make([]uint64, du)
		}
	default:
		ap.shape = aggGeneral
	}
	return ap
}

// dimCounts tallies how many times each in-range dimension value appears in
// the resolved filter list.
func dimCounts(list []int, dim int) []uint32 {
	cnt := make([]uint32, dim)
	for _, v := range list {
		cnt[v]++
	}
	return cnt
}

// resetScratch zeroes the strided-kernel accumulators.
func (ap *AggPlan) resetScratch() {
	for i := range ap.partial {
		ap.partial[i] = 0
	}
	for i := range ap.ors {
		ap.ors[i] = 0
	}
}

// flushScratch folds the strided partial sums into dst, creating keys only
// for groups that saw a nonzero cell (matching the scalar loop), and returns
// the grand total. mk builds the key for one group value.
func (ap *AggPlan) flushScratch(dst map[Key]uint64, mk func(i int) Key) uint64 {
	var total uint64
	for i, sum := range ap.partial {
		total += sum
		if ap.ors[i] != 0 {
			dst[mk(i)] += sum
		}
	}
	return total
}

// sumRun returns the sum and bitwise OR of a cell run. The OR distinguishes
// "all cells zero" from "sums wrapped to zero" so key presence matches the
// scalar loop bit for bit.
func sumRun(cells []uint64) (sum, or uint64) {
	for _, v := range cells {
		sum += v
		or |= v
	}
	return sum, or
}

// AggregatePlanInto implements Reader using the plan's kernel dispatch.
func (cb *Cube) AggregatePlanInto(ap *AggPlan, dst map[Key]uint64) uint64 {
	switch ap.shape {
	case aggTotal:
		sum, or := sumRun(cb.cells)
		if or != 0 {
			dst[ungroupedKey] += sum
		}
		return sum

	case aggGroupElement:
		var total uint64
		for e := 0; e*cb.se < len(cb.cells); e++ {
			sum, or := sumRun(cb.cells[e*cb.se : (e+1)*cb.se])
			total += sum
			if or != 0 {
				dst[Key{Element: int16(e), Country: -1, RoadType: -1, Update: -1}] += sum
			}
		}
		return total

	case aggGroupCountry:
		ap.resetScratch()
		dc := len(ap.cs)
		for base := 0; base < len(cb.cells); base += cb.se {
			for c := 0; c < dc; c++ {
				sum, or := sumRun(cb.cells[base+c*cb.sc : base+(c+1)*cb.sc])
				ap.partial[c] += sum
				ap.ors[c] |= or
			}
		}
		return ap.flushScratch(dst, func(c int) Key {
			return Key{Element: -1, Country: int16(c), RoadType: -1, Update: -1}
		})

	case aggGroupRoadType:
		ap.resetScratch()
		dr := len(ap.rs)
		for base := 0; base < len(cb.cells); base += cb.sc {
			for r := 0; r < dr; r++ {
				sum, or := sumRun(cb.cells[base+r*cb.sr : base+(r+1)*cb.sr])
				ap.partial[r] += sum
				ap.ors[r] |= or
			}
		}
		return ap.flushScratch(dst, func(r int) Key {
			return Key{Element: -1, Country: -1, RoadType: int16(r), Update: -1}
		})

	case aggGroupUpdate:
		ap.resetScratch()
		du := len(ap.us)
		for base := 0; base < len(cb.cells); base += du {
			for u := 0; u < du; u++ {
				v := cb.cells[base+u]
				ap.partial[u] += v
				ap.ors[u] |= v
			}
		}
		return ap.flushScratch(dst, func(u int) Key {
			return Key{Element: -1, Country: -1, RoadType: -1, Update: int16(u)}
		})

	case aggFilteredTotal:
		var sum, or uint64
		for _, e := range ap.es {
			eBase := e * cb.se
			for _, c := range ap.cs {
				cBase := eBase + c*cb.sc
				for _, r := range ap.rs {
					rBase := cBase + r*cb.sr
					for _, u := range ap.us {
						v := cb.cells[rBase+u]
						sum += v
						or |= v
					}
				}
			}
		}
		if or != 0 {
			dst[ungroupedKey] += sum
		}
		return sum

	default:
		return cb.aggregateLists(ap, dst)
	}
}

// aggregateLists is the general path: the scalar reference loop driven by the
// plan's precompiled value lists.
func (cb *Cube) aggregateLists(ap *AggPlan, dst map[Key]uint64) uint64 {
	var total uint64
	key := ungroupedKey
	for _, e := range ap.es {
		if ap.g.Element {
			key.Element = int16(e)
		}
		eBase := e * cb.se
		for _, c := range ap.cs {
			if ap.g.Country {
				key.Country = int16(c)
			}
			cBase := eBase + c*cb.sc
			for _, r := range ap.rs {
				if ap.g.RoadType {
					key.RoadType = int16(r)
				}
				rBase := cBase + r*cb.sr
				for _, u := range ap.us {
					v := cb.cells[rBase+u]
					if v == 0 {
						continue
					}
					if ap.g.Update {
						key.Update = int16(u)
					}
					dst[key] += v
					total += v
				}
			}
		}
	}
	return total
}
