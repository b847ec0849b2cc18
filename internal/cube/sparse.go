package cube

import (
	"encoding/binary"

	"rased/internal/temporal"
)

// SparseCube is a read-only cube decoded from an EncSparse page payload: the
// nonzero cells only, as parallel (flat index, value) arrays sorted by index.
// A mostly-zero historical cube that serializes to a few KiB stays a few KiB
// in memory too, so a byte-budgeted cache holds an order of magnitude more
// sparse entries than dense ones.
type SparseCube struct {
	schema     *Schema
	idx        []uint32
	val        []uint64
	se, sc, sr int
}

var _ Reader = (*SparseCube)(nil)

// newSparseCube decodes a validated EncSparse payload into a SparseCube.
func newSparseCube(s *Schema, payload []byte) (*SparseCube, error) {
	cells := s.CellCount()
	nnz, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, errV2Varint
	}
	if nnz > uint64(cells) {
		return nil, errV2Index
	}
	sc := &SparseCube{
		schema: s,
		idx:    make([]uint32, 0, nnz),
		val:    make([]uint64, 0, nnz),
	}
	_, c, r, u := s.Dims()
	sc.se, sc.sc, sc.sr = c*r*u, r*u, u
	off := n
	idx := -1
	for k := uint64(0); k < nnz; k++ {
		gap, gn := binary.Uvarint(payload[off:])
		if gn <= 0 {
			return nil, errV2Varint
		}
		off += gn
		val, vn := binary.Uvarint(payload[off:])
		if vn <= 0 {
			return nil, errV2Varint
		}
		off += vn
		if gap > uint64(cells) {
			return nil, errV2Index
		}
		idx += 1 + int(gap)
		if idx >= cells {
			return nil, errV2Index
		}
		sc.idx = append(sc.idx, uint32(idx))
		sc.val = append(sc.val, val)
	}
	if off != len(payload) {
		return nil, errV2Tail
	}
	return sc, nil
}

// Schema returns the cube's schema.
func (sc *SparseCube) Schema() *Schema { return sc.schema }

// Nonzero returns the number of stored (nonzero) cells.
func (sc *SparseCube) Nonzero() int { return len(sc.idx) }

// At returns the count at one coordinate via binary search over the sorted
// nonzero indexes.
func (sc *SparseCube) At(e, c, r, u int) uint64 {
	want := uint32(e*sc.se + c*sc.sc + r*sc.sr + u)
	lo, hi := 0, len(sc.idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sc.idx[mid] < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sc.idx) && sc.idx[lo] == want {
		return sc.val[lo]
	}
	return 0
}

// AggregateInto implements Reader by compiling a one-shot plan; callers on the
// hot path use AggregatePlanInto with a per-query plan instead.
func (sc *SparseCube) AggregateInto(f Filter, g GroupBy, dst map[Key]uint64) uint64 {
	return sc.AggregatePlanInto(CompileAgg(sc.schema, f, g), dst)
}

// AggregatePlanInto implements Reader by walking the nonzero cells once. Each
// stored cell's contribution is its value times the multiplicity of its
// coordinate in the plan's filter lists (an explicit list may repeat a value,
// and the scalar reference loop visits the cell once per repetition), which
// reproduces AggregateInto bit for bit — including which keys exist, since
// only nonzero cells are stored and only matched cells touch the map.
//
//rased:hotpath
func (sc *SparseCube) AggregatePlanInto(ap *AggPlan, dst map[Key]uint64) uint64 {
	if ap.shape == aggTotal {
		var sum, or uint64
		for _, v := range sc.val {
			sum += v
			or |= v
		}
		if or != 0 {
			dst[ungroupedKey] += sum
		}
		return sum
	}
	var total uint64
	for k, flat := range sc.idx {
		i := int(flat)
		e := i / sc.se
		i -= e * sc.se
		c := i / sc.sc
		i -= c * sc.sc
		r := i / sc.sr
		u := i - r*sc.sr
		m := uint64(ap.cntE[e]) * uint64(ap.cntC[c]) * uint64(ap.cntR[r]) * uint64(ap.cntU[u])
		if m == 0 {
			continue
		}
		v := sc.val[k] * m
		key := ungroupedKey
		if ap.g.Element {
			key.Element = int16(e)
		}
		if ap.g.Country {
			key.Country = int16(c)
		}
		if ap.g.RoadType {
			key.RoadType = int16(r)
		}
		if ap.g.Update {
			key.Update = int16(u)
		}
		dst[key] += v
		total += v
	}
	return total
}

// Materialize decodes the sparse cube into a full dense Cube.
func (sc *SparseCube) Materialize() *Cube {
	cb := New(sc.schema)
	for k, flat := range sc.idx {
		cb.cells[flat] = sc.val[k]
	}
	return cb
}

// UnmarshalPageReader validates a page of either format version and returns
// a Reader sized to its payload encoding: a compact SparseCube for sparse
// payloads, a decoded Cube for dense and delta payloads. Scrub validates
// pages of both tiers through it; queries decode into pooled cubes with
// UnmarshalPageInto instead.
func UnmarshalPageReader(s *Schema, buf []byte, verify bool) (Reader, temporal.Period, error) {
	payload, enc, p, err := parsePage(s, buf, verify)
	if err != nil {
		return nil, p, err
	}
	if enc == EncSparse {
		scb, err := newSparseCube(s, payload)
		if err != nil {
			return nil, p, err
		}
		return scb, p, nil
	}
	cb := New(s)
	if err := decodePayloadInto(cb.cells, enc, payload); err != nil {
		return nil, p, err
	}
	return cb, p, nil
}

// ReaderBytes estimates the resident heap footprint of a decoded reader's
// cell data, for byte-budgeted cache accounting. Unknown reader types are
// charged a full dense cube.
func ReaderBytes(rd Reader) int {
	switch v := rd.(type) {
	case *Cube:
		return 8 * len(v.cells)
	case *SparseCube:
		return 12 * len(v.idx)
	default:
		return 8 * rd.Schema().CellCount()
	}
}
