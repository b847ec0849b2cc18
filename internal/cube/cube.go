// Package cube implements RASED's four-dimensional data cubes (Section VI-A):
// dense count arrays over ElementType × Country × RoadType × UpdateType, one
// cube per temporal period, each serialized into a fixed-size disk page.
//
// Every cell holds the number of UpdateList tuples matching its coordinate in
// the cube's time window. Zone members of the country dimension (continents,
// World, sub-national zones) are rollup values: ingestion increments both the
// leaf country cell and each enclosing zone cell, so queries that name a zone
// read a single cell.
package cube

import (
	"fmt"

	"rased/internal/geo"
	"rased/internal/osm"
	"rased/internal/roads"
	"rased/internal/update"
)

// Schema fixes the four dimension catalogs. Cubes are only compatible (for
// merging and querying) when they share a schema.
type Schema struct {
	ElementTypes []string
	Countries    []string
	RoadTypes    []string
	UpdateTypes  []string
}

// DefaultSchema returns the paper-scale schema: 3 element types, the full
// geo catalog (countries + zones), 150 road types, 4 update types.
func DefaultSchema() *Schema {
	return &Schema{
		ElementTypes: osm.ElementTypeNames(),
		Countries:    geo.Default().Names(),
		RoadTypes:    roads.Names(),
		UpdateTypes:  update.TypeNames(),
	}
}

// ScaledSchema returns a schema with the first nCountries countries and
// nRoadTypes road types of the default catalogs, used by benchmarks that need
// smaller cubes. It panics when the requested size exceeds the catalogs.
func ScaledSchema(nCountries, nRoadTypes int) *Schema {
	def := DefaultSchema()
	if nCountries > len(def.Countries) || nRoadTypes > len(def.RoadTypes) {
		panic(fmt.Sprintf("cube: scaled schema %d×%d exceeds catalogs %d×%d",
			nCountries, nRoadTypes, len(def.Countries), len(def.RoadTypes)))
	}
	return &Schema{
		ElementTypes: def.ElementTypes,
		Countries:    def.Countries[:nCountries],
		RoadTypes:    def.RoadTypes[:nRoadTypes],
		UpdateTypes:  def.UpdateTypes,
	}
}

// Dims returns the four dimension cardinalities (E, C, R, U).
func (s *Schema) Dims() (e, c, r, u int) {
	return len(s.ElementTypes), len(s.Countries), len(s.RoadTypes), len(s.UpdateTypes)
}

// CellCount returns the number of cells of a cube with this schema.
func (s *Schema) CellCount() int {
	e, c, r, u := s.Dims()
	return e * c * r * u
}

// Fingerprint returns a stable 64-bit identifier of the schema geometry,
// embedded in cube pages to reject cross-schema reads.
func (s *Schema) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(vals []string) {
		h ^= uint64(len(vals))
		h *= prime
		for _, v := range vals {
			for i := 0; i < len(v); i++ {
				h ^= uint64(v[i])
				h *= prime
			}
		}
	}
	mix(s.ElementTypes)
	mix(s.Countries)
	mix(s.RoadTypes)
	mix(s.UpdateTypes)
	return h
}

// Cube is one dense 4-D count array.
type Cube struct {
	schema *Schema
	cells  []uint64
	// strides for (e, c, r, u) coordinates.
	se, sc, sr int
}

// New returns a zeroed cube with the given schema.
func New(s *Schema) *Cube {
	_, c, r, u := s.Dims()
	return &Cube{
		schema: s,
		cells:  make([]uint64, s.CellCount()),
		se:     c * r * u,
		sc:     r * u,
		sr:     u,
	}
}

// Schema returns the cube's schema.
func (cb *Cube) Schema() *Schema { return cb.schema }

// Reset zeroes every cell, keeping the allocation.
func (cb *Cube) Reset() {
	for i := range cb.cells {
		cb.cells[i] = 0
	}
}

// index returns the flat cell index for a coordinate. Coordinates must be in
// range (checked by Add/At via slice bounds).
func (cb *Cube) index(e, c, r, u int) int {
	return e*cb.se + c*cb.sc + r*cb.sr + u
}

// Add increments the cell at (e, c, r, u) by n.
func (cb *Cube) Add(e, c, r, u int, n uint64) {
	cb.cells[cb.index(e, c, r, u)] += n
}

// At returns the count at (e, c, r, u).
func (cb *Cube) At(e, c, r, u int) uint64 {
	return cb.cells[cb.index(e, c, r, u)]
}

// InRange reports whether the coordinate is valid for the cube's schema.
func (cb *Cube) InRange(e, c, r, u int) bool {
	de, dc, dr, du := cb.schema.Dims()
	return e >= 0 && e < de && c >= 0 && c < dc && r >= 0 && r < dr && u >= 0 && u < du
}

// AddRecord ingests one UpdateList tuple: the leaf country cell and each
// listed zone cell are incremented. Records whose coordinates fall outside
// the schema (e.g. a scaled schema that drops high country values) are
// dropped and reported via the return value.
func (cb *Cube) AddRecord(rec *update.Record, zones []int) bool {
	e, c, r, u := int(rec.ElementType), int(rec.Country), int(rec.RoadType), int(rec.UpdateType)
	if !cb.InRange(e, c, r, u) {
		return false
	}
	cb.Add(e, c, r, u, 1)
	for _, z := range zones {
		if cb.InRange(e, z, r, u) {
			cb.Add(e, z, r, u, 1)
		}
	}
	return true
}

// Merge adds every cell of other into cb. The cubes must share a schema
// geometry.
func (cb *Cube) Merge(other *Cube) error {
	if len(cb.cells) != len(other.cells) ||
		cb.schema.Fingerprint() != other.schema.Fingerprint() {
		return fmt.Errorf("cube: merge of incompatible schemas")
	}
	for i, v := range other.cells {
		cb.cells[i] += v
	}
	return nil
}

// Total returns the sum of every cell (zone rollups included, so this is not
// a count of distinct updates; see LeafTotal).
func (cb *Cube) Total() uint64 {
	var t uint64
	for _, v := range cb.cells {
		t += v
	}
	return t
}

// LeafTotal returns the number of updates ingested, counting only cells whose
// country value is a leaf country (below numLeafCountries).
func (cb *Cube) LeafTotal(numLeafCountries int) uint64 {
	de, dc, dr, du := cb.schema.Dims()
	if numLeafCountries > dc {
		numLeafCountries = dc
	}
	var t uint64
	for e := 0; e < de; e++ {
		for c := 0; c < numLeafCountries; c++ {
			base := e*cb.se + c*cb.sc
			for i := 0; i < dr*du; i++ {
				t += cb.cells[base+i]
			}
		}
	}
	return t
}

// Reader is the read-only cube interface: the dense Cube every query path
// consumes, and the compact SparseCube decoded from EncSparse payloads.
type Reader interface {
	// Schema returns the cube's schema.
	Schema() *Schema
	// At returns the count at one coordinate.
	At(e, c, r, u int) uint64
	// AggregateInto sums the filtered sub-cube into dst keyed by the grouped
	// dimensions, returning the filtered total. It is the scalar reference
	// the kernel fuzz and property tests compare AggregatePlanInto against.
	AggregateInto(f Filter, g GroupBy, dst map[Key]uint64) uint64
	// AggregatePlanInto is AggregateInto driven by a precompiled AggPlan:
	// filter lists are resolved once per query instead of once per cube, and
	// common shapes dispatch to vectorized kernels. Results are bit-identical
	// to AggregateInto with the plan's filter and grouping.
	AggregatePlanInto(ap *AggPlan, dst map[Key]uint64) uint64
}

var _ Reader = (*Cube)(nil)

// Filter restricts an aggregation to listed dimension values; a nil slice
// means "all values". Values outside the schema are ignored.
type Filter struct {
	Elements    []int
	Countries   []int
	RoadTypes   []int
	UpdateTypes []int
}

// GroupBy selects which dimensions appear in the result key.
type GroupBy struct {
	Element  bool
	Country  bool
	RoadType bool
	Update   bool
}

// Key is one group-by key. Dimensions not grouped are -1.
type Key struct {
	Element  int16
	Country  int16
	RoadType int16
	Update   int16
}

// values returns the filter's value list for one dimension, defaulting to the
// full range, with out-of-schema values dropped.
func values(filter []int, dim int, scratch []int) []int {
	if filter == nil {
		scratch = scratch[:0]
		for i := 0; i < dim; i++ {
			scratch = append(scratch, i)
		}
		return scratch
	}
	out := scratch[:0]
	for _, v := range filter {
		if v >= 0 && v < dim {
			out = append(out, v)
		}
	}
	return out
}

// AggregateInto sums the filtered sub-cube into dst, keyed by the grouped
// dimensions. Passing the same dst across cubes accumulates a multi-period
// aggregate. Returns the total added (over the filtered region).
func (cb *Cube) AggregateInto(f Filter, g GroupBy, dst map[Key]uint64) uint64 {
	de, dc, dr, du := cb.schema.Dims()
	var eBuf, cBuf, rBuf, uBuf [512]int
	es := values(f.Elements, de, eBuf[:0])
	cs := values(f.Countries, dc, cBuf[:0])
	rs := values(f.RoadTypes, dr, rBuf[:0])
	us := values(f.UpdateTypes, du, uBuf[:0])

	var total uint64
	key := Key{Element: -1, Country: -1, RoadType: -1, Update: -1}
	for _, e := range es {
		if g.Element {
			key.Element = int16(e)
		}
		eBase := e * cb.se
		for _, c := range cs {
			if g.Country {
				key.Country = int16(c)
			}
			cBase := eBase + c*cb.sc
			for _, r := range rs {
				if g.RoadType {
					key.RoadType = int16(r)
				}
				rBase := cBase + r*cb.sr
				for _, u := range us {
					v := cb.cells[rBase+u]
					if v == 0 {
						continue
					}
					if g.Update {
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

// Equal reports whether two cubes have identical schema geometry and cells.
func (cb *Cube) Equal(other *Cube) bool {
	if len(cb.cells) != len(other.cells) ||
		cb.schema.Fingerprint() != other.schema.Fingerprint() {
		return false
	}
	for i, v := range cb.cells {
		if other.cells[i] != v {
			return false
		}
	}
	return true
}

// Clone returns a deep copy sharing the schema.
func (cb *Cube) Clone() *Cube {
	c := New(cb.schema)
	copy(c.cells, cb.cells)
	return c
}
