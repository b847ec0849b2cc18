package cube

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

	"rased/internal/temporal"
)

// The version-2 page format (layout documented in page.go) trades the fixed
// dense page for the smallest of three payload encodings, chosen per page by
// the encoder. A 15-year index is overwhelmingly zeros — a country×roadtype
// cube only fills where mappers were active — so cold pages routinely shrink
// by an order of magnitude while round-tripping bit-identically to v1.
//
// Decoding stays on the PR 4 zero-allocation contract: decodeSparseInto and
// decodeDeltaInto write into a caller-owned cell slice with no temporary
// state beyond loop counters, and are marked //rased:hotpath alongside the
// dense path.

// Static decode errors: the zero-alloc decoders cannot build fmt errors per
// failure, and the caller only needs the ErrBadPage class for quarantine.
var (
	errV2Varint = fmt.Errorf("cube: v2 payload has a truncated or overlong varint: %w", ErrBadPage)
	errV2Index  = fmt.Errorf("cube: v2 sparse payload indexes past the cube: %w", ErrBadPage)
	errV2Tail   = fmt.Errorf("cube: v2 payload has trailing bytes: %w", ErrBadPage)
)

// uvarintLen returns the encoded size of x in bytes (1..10).
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// zigzag maps the wrapping cell difference d (reinterpreted as signed) to the
// small-magnitude-first unsigned order varints like.
func zigzag(d uint64) uint64 {
	x := int64(d)
	return uint64((x << 1) ^ (x >> 63))
}

// unzigzag inverts zigzag.
func unzigzag(u uint64) uint64 {
	return uint64(int64(u>>1) ^ -int64(u&1))
}

// sparseSize returns the EncSparse payload size for cells.
func sparseSize(cells []uint64) int {
	nnz, size, prev := 0, 0, -1
	for i, v := range cells {
		if v == 0 {
			continue
		}
		nnz++
		size += uvarintLen(uint64(i-prev-1)) + uvarintLen(v)
		prev = i
	}
	return size + uvarintLen(uint64(nnz))
}

// deltaSize returns the EncDelta payload size for cells.
func deltaSize(cells []uint64) int {
	size, prev := 0, uint64(0)
	for _, v := range cells {
		size += uvarintLen(zigzag(v - prev))
		prev = v
	}
	return size
}

// chooseEncoding sizes all three encodings with one scan each and returns the
// smallest (dense wins ties: it is the cheapest to decode).
func chooseEncoding(cells []uint64) (enc byte, plen int) {
	enc, plen = EncDense, 8*len(cells)
	if s := sparseSize(cells); s < plen {
		enc, plen = EncSparse, s
	}
	if d := deltaSize(cells); d < plen {
		enc, plen = EncDelta, d
	}
	return enc, plen
}

// encodeSparse writes the EncSparse payload into dst, which must be exactly
// sparseSize(cells) bytes.
func encodeSparse(dst []byte, cells []uint64) {
	nnz := 0
	for _, v := range cells {
		if v != 0 {
			nnz++
		}
	}
	off := binary.PutUvarint(dst, uint64(nnz))
	prev := -1
	for i, v := range cells {
		if v == 0 {
			continue
		}
		off += binary.PutUvarint(dst[off:], uint64(i-prev-1))
		off += binary.PutUvarint(dst[off:], v)
		prev = i
	}
}

// encodeDelta writes the EncDelta payload into dst, which must be exactly
// deltaSize(cells) bytes.
func encodeDelta(dst []byte, cells []uint64) {
	off, prev := 0, uint64(0)
	for _, v := range cells {
		off += binary.PutUvarint(dst[off:], zigzag(v-prev))
		prev = v
	}
}

// V2PageSize returns the padded on-disk size MarshalPageV2 would produce for
// cb — header plus the smallest encoding's payload, rounded up to PageAlign.
// It never exceeds PageSize(cb.Schema()).
func V2PageSize(cb *Cube) int {
	_, plen := chooseEncoding(cb.cells)
	return (pageHeaderSize + plen + pageAlign - 1) / pageAlign * pageAlign
}

// MarshalPageV2 serializes the cube and its period into a version-2 page,
// choosing the smallest of the three payload encodings. The result is padded
// to a PageAlign multiple and is at most PageSize(cb.Schema()) bytes (the
// dense encoding is the v1 cell array, so compression never loses).
func MarshalPageV2(cb *Cube, p temporal.Period) []byte {
	enc, plen := chooseEncoding(cb.cells)
	padded := (pageHeaderSize + plen + pageAlign - 1) / pageAlign * pageAlign
	buf := make([]byte, padded)
	marshalV2(buf, cb, p, enc, plen)
	return buf
}

// MarshalPageV2Into serializes a version-2 page into dst, which must be at
// least PageSize(cb.Schema()) bytes (a pooled buffer from PagePool.GetBuf
// always qualifies). Every byte of the returned slice — header, payload, and
// zero padding — is written, so a recycled buffer needs no prior clearing.
// The returned slice is dst truncated to the padded encoded length and is
// byte-identical to MarshalPageV2's output. Unlike MarshalPageV2, nothing is
// allocated.
//
//rased:hotpath
func MarshalPageV2Into(dst []byte, cb *Cube, p temporal.Period) ([]byte, error) {
	enc, plen := chooseEncoding(cb.cells)
	padded := (pageHeaderSize + plen + pageAlign - 1) / pageAlign * pageAlign
	if len(dst) < padded {
		return nil, fmt.Errorf("cube: marshal target is %d bytes, v2 page wants %d", len(dst), padded)
	}
	buf := dst[:padded]
	marshalV2(buf, cb, p, enc, plen)
	return buf, nil
}

// marshalV2 writes a complete v2 page — every byte of buf, which must be
// exactly the padded length — so it works over recycled buffers.
func marshalV2(buf []byte, cb *Cube, p temporal.Period, enc byte, plen int) {
	encodeHeader(buf, cb, p, pageVersion2)
	buf[11] = enc
	binary.LittleEndian.PutUint32(buf[12:], uint32(plen))
	payload := buf[pageHeaderSize : pageHeaderSize+plen]
	switch enc {
	case EncSparse:
		encodeSparse(payload, cb.cells)
	case EncDelta:
		encodeDelta(payload, cb.cells)
	default:
		for i, v := range cb.cells {
			binary.LittleEndian.PutUint64(payload[8*i:], v)
		}
	}
	binary.LittleEndian.PutUint32(buf[36:], crc32.ChecksumIEEE(payload))
	for i := pageHeaderSize + plen; i < len(buf); i++ {
		buf[i] = 0
	}
}

// PageInfo reports a serialized page's format version, payload encoding, and
// unpadded encoded length (header + payload) from its header alone, without
// validating the payload. Benchmarks and tier stats use it to attribute
// on-disk bytes to encodings.
func PageInfo(buf []byte) (version uint16, enc byte, encodedLen int, err error) {
	if len(buf) < pageHeaderSize {
		return 0, 0, 0, fmt.Errorf("cube: page too small (%d bytes): %w", len(buf), ErrBadPage)
	}
	version = binary.LittleEndian.Uint16(buf[8:])
	n := int(binary.LittleEndian.Uint32(buf[32:]))
	switch version {
	case pageVersion:
		return version, EncDense, pageHeaderSize + 8*n, nil
	case pageVersion2:
		return version, buf[11], pageHeaderSize + int(binary.LittleEndian.Uint32(buf[12:])), nil
	default:
		return version, 0, 0, fmt.Errorf("cube: unsupported page version %d: %w", version, ErrBadPage)
	}
}

// decodeSparseInto decodes an EncSparse payload into dst, overwriting every
// cell. Zero-alloc: errors are the static sentinels above.
//
//rased:hotpath
func decodeSparseInto(dst []uint64, payload []byte) error {
	for i := range dst {
		dst[i] = 0
	}
	nnz, n := binary.Uvarint(payload)
	if n <= 0 {
		return errV2Varint
	}
	if nnz > uint64(len(dst)) {
		return errV2Index
	}
	off := n
	idx := -1
	for k := uint64(0); k < nnz; k++ {
		gap, gn := binary.Uvarint(payload[off:])
		if gn <= 0 {
			return errV2Varint
		}
		off += gn
		val, vn := binary.Uvarint(payload[off:])
		if vn <= 0 {
			return errV2Varint
		}
		off += vn
		if gap > uint64(len(dst)) {
			return errV2Index
		}
		idx += 1 + int(gap)
		if idx >= len(dst) {
			return errV2Index
		}
		dst[idx] = val
	}
	if off != len(payload) {
		return errV2Tail
	}
	return nil
}

// decodeDeltaInto decodes an EncDelta payload into dst, overwriting every
// cell. The running sum uses wrapping uint64 arithmetic, so the round trip is
// exact for every cell value including ^uint64(0).
//
//rased:hotpath
func decodeDeltaInto(dst []uint64, payload []byte) error {
	off, prev := 0, uint64(0)
	for i := range dst {
		uv, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return errV2Varint
		}
		off += n
		prev += unzigzag(uv)
		dst[i] = prev
	}
	if off != len(payload) {
		return errV2Tail
	}
	return nil
}
