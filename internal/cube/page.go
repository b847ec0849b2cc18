package cube

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"rased/internal/temporal"
)

// Typed page-validation sentinels. The data plane's degraded mode keys off
// these: a checksum mismatch quarantines the page and triggers a replan to
// constituent cubes, while a malformed header is treated the same way (the
// page is unusable either way, only the suspected cause differs).
var (
	// ErrChecksum reports a payload whose CRC-32 does not match the header —
	// a torn write or bit rot.
	ErrChecksum = errors.New("page checksum mismatch")
	// ErrBadPage reports a structurally invalid page: wrong magic, version,
	// level, schema fingerprint, cell count, or a truncated buffer.
	ErrBadPage = errors.New("malformed cube page")
)

// Page layout (little endian). This is the single source of truth for both
// on-disk formats; MarshalPage/MarshalPageV2 write it and parsePage reads it.
//
// Shared 40-byte header:
//
//	offset  size  field
//	0       8     magic "RASEDCB1"
//	8       2     format version (1 or 2)
//	10      1     temporal level
//	11      1     v1: reserved (0) · v2: payload encoding (EncDense/EncSparse/EncDelta)
//	12      4     v1: reserved (0) · v2: payload byte length (uint32)
//	16      8     period index (int64)
//	24      8     schema fingerprint
//	32      4     cell count
//	36      4     CRC-32 (IEEE) of the payload
//
// Version 1 (dense, fixed size): the payload is exactly 8×cellCount bytes of
// little-endian uint64 cells, and the page is zero-padded to PageSize — every
// v1 page of a schema occupies the same number of bytes regardless of content.
//
// Version 2 (compressed, variable size): the payload is one of three
// encodings, whichever MarshalPageV2 found smallest for the cube at hand:
//
//	EncDense  (0): the v1 cell array verbatim — the worst case, so a v2 page
//	               never exceeds PageSize and a pooled page buffer always fits.
//	EncSparse (1): uvarint nonzero-cell count, then per nonzero cell in index
//	               order a uvarint gap (index − previousIndex − 1) and a
//	               uvarint value. Wins on mostly-zero cubes.
//	EncDelta  (2): per cell, in cell order, the zigzag-encoded uvarint of the
//	               wrapping difference from the previous cell (first cell
//	               differences from 0). Wins on smooth count surfaces where
//	               neighboring cells hold similar magnitudes.
//
// A v2 page is zero-padded to the next PageAlign (4 KiB) multiple of
// header+payload, so it occupies ceil(encoded/4KiB) aligned slots in an
// extent-based store rather than a full fixed-size page.
const (
	pageHeaderSize = 40
	pageAlign      = 4096
	pageVersion    = 1
	pageVersion2   = 2
)

// PageAlign is the on-disk alignment unit: every page, v1 or v2, is a
// multiple of this size. Tiered stores use it as the extent slot size.
const PageAlign = pageAlign

// Payload encodings of the v2 page format (header byte 11).
const (
	EncDense  byte = 0
	EncSparse byte = 1
	EncDelta  byte = 2
)

var pageMagic = [8]byte{'R', 'A', 'S', 'E', 'D', 'C', 'B', '1'}

// PageSize returns the fixed on-disk size of a version-1 page for cubes of
// schema s: header plus dense payload, rounded up to a 4 KiB multiple. (The
// paper stores each cube in one fixed-size disk page; at the default schema
// that is ~4.3 MB of cells, and a scaled benchmark schema shrinks it — the
// size is always derived from the schema, never hardcoded.) It is also the
// worst-case size of a version-2 page, whose dense encoding is the v1 cell
// array verbatim.
func PageSize(s *Schema) int {
	raw := pageHeaderSize + 8*s.CellCount()
	return (raw + pageAlign - 1) / pageAlign * pageAlign
}

// encodeHeader writes the shared header fields into buf. The caller fills the
// version-specific bytes (11:16) and the CRC afterwards.
func encodeHeader(buf []byte, cb *Cube, p temporal.Period, version uint16) {
	copy(buf[0:8], pageMagic[:])
	binary.LittleEndian.PutUint16(buf[8:], version)
	buf[10] = byte(p.Level)
	buf[11] = 0
	binary.LittleEndian.PutUint32(buf[12:], 0)
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(p.Index)))
	binary.LittleEndian.PutUint64(buf[24:], cb.schema.Fingerprint())
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(cb.cells)))
}

// MarshalPage serializes the cube and its period into a fixed-size v1 page.
func MarshalPage(cb *Cube, p temporal.Period) []byte {
	buf := make([]byte, PageSize(cb.schema))
	marshalV1(buf, cb, p)
	return buf
}

// MarshalPageInto serializes a v1 page into dst, which must be at least
// PageSize(cb.Schema()) bytes (typically a pooled buffer from
// PagePool.GetBuf). Every byte of the page — header, payload, and zero
// padding — is written, so a recycled buffer needs no prior clearing. The
// returned slice is dst[:PageSize] and is byte-identical to MarshalPage's
// output. Unlike MarshalPage, nothing is allocated.
//
//rased:hotpath
func MarshalPageInto(dst []byte, cb *Cube, p temporal.Period) ([]byte, error) {
	size := PageSize(cb.schema)
	if len(dst) < size {
		return nil, fmt.Errorf("cube: marshal target is %d bytes, page wants %d", len(dst), size)
	}
	buf := dst[:size]
	marshalV1(buf, cb, p)
	return buf, nil
}

// marshalV1 writes a complete v1 page — every byte of buf, which must be
// exactly PageSize long — so it works over recycled buffers.
func marshalV1(buf []byte, cb *Cube, p temporal.Period) {
	encodeHeader(buf, cb, p, pageVersion)
	payload := buf[pageHeaderSize : pageHeaderSize+8*len(cb.cells)]
	for i, v := range cb.cells {
		binary.LittleEndian.PutUint64(payload[8*i:], v)
	}
	binary.LittleEndian.PutUint32(buf[36:], crc32.ChecksumIEEE(payload))
	for i := pageHeaderSize + len(payload); i < len(buf); i++ {
		buf[i] = 0
	}
}

// parsePage validates a page's header against schema s — magic, version,
// level, schema fingerprint, cell count, truncation, and (when verify is set)
// the payload CRC — and returns the payload slice, its encoding (always
// EncDense for v1 pages), and the page's period. It is the single validation
// path under UnmarshalPage, UnmarshalPageReader, and UnmarshalPageInto.
//
//rased:hotpath
func parsePage(s *Schema, buf []byte, verify bool) ([]byte, byte, temporal.Period, error) {
	var p temporal.Period
	if len(buf) < pageHeaderSize {
		return nil, 0, p, fmt.Errorf("cube: page too small (%d bytes): %w", len(buf), ErrBadPage)
	}
	// Compare the magic in place: copying into a local [8]byte would force a
	// heap allocation on every parse (the error path slices it into Errorf).
	if !bytes.Equal(buf[0:8], pageMagic[:]) {
		return nil, 0, p, fmt.Errorf("cube: bad page magic %q: %w", buf[0:8], ErrBadPage)
	}
	v := binary.LittleEndian.Uint16(buf[8:])
	if v != pageVersion && v != pageVersion2 {
		return nil, 0, p, fmt.Errorf("cube: unsupported page version %d: %w", v, ErrBadPage)
	}
	p.Level = temporal.Level(buf[10])
	if !p.Level.Valid() {
		return nil, 0, p, fmt.Errorf("cube: invalid page level %d: %w", buf[10], ErrBadPage)
	}
	p.Index = int(int64(binary.LittleEndian.Uint64(buf[16:])))
	if fp := binary.LittleEndian.Uint64(buf[24:]); fp != s.Fingerprint() {
		return nil, 0, p, fmt.Errorf("cube: page schema fingerprint %x does not match schema %x: %w", fp, s.Fingerprint(), ErrBadPage)
	}
	n := int(binary.LittleEndian.Uint32(buf[32:]))
	if n != s.CellCount() {
		return nil, 0, p, fmt.Errorf("cube: page has %d cells, schema wants %d: %w", n, s.CellCount(), ErrBadPage)
	}
	enc := EncDense
	plen := 8 * n
	if v == pageVersion2 {
		enc = buf[11]
		if enc > EncDelta {
			return nil, 0, p, fmt.Errorf("cube: unknown v2 payload encoding %d: %w", enc, ErrBadPage)
		}
		plen = int(binary.LittleEndian.Uint32(buf[12:]))
		if enc == EncDense && plen != 8*n {
			return nil, 0, p, fmt.Errorf("cube: v2 dense payload is %d bytes, want %d: %w", plen, 8*n, ErrBadPage)
		}
	}
	if len(buf) < pageHeaderSize+plen {
		return nil, 0, p, fmt.Errorf("cube: page truncated: %d bytes for a %d-byte payload: %w", len(buf), plen, ErrBadPage)
	}
	payload := buf[pageHeaderSize : pageHeaderSize+plen]
	if verify {
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(buf[36:]); got != want {
			return nil, 0, p, fmt.Errorf("cube: got %08x want %08x (torn page?): %w", got, want, ErrChecksum)
		}
	}
	return payload, enc, p, nil
}

// UnmarshalPage deserializes a page (either format version) into a fresh cube
// with schema s, validating magic, version, schema fingerprint, and payload
// checksum.
func UnmarshalPage(s *Schema, buf []byte) (*Cube, temporal.Period, error) {
	payload, enc, p, err := parsePage(s, buf, true)
	if err != nil {
		return nil, p, err
	}
	cb := New(s)
	if err := decodePayloadInto(cb.cells, enc, payload); err != nil {
		return nil, p, err
	}
	return cb, p, nil
}

// UnmarshalPageInto decodes a page (either format version, any encoding) into
// dst, which must have been built for a schema with the same geometry
// (typically a pooled scratch cube from PagePool.GetCube). Every cell of dst
// is overwritten, so the caller need not Reset it first. Unlike UnmarshalPage,
// nothing is allocated.
//
//rased:hotpath
func UnmarshalPageInto(s *Schema, dst *Cube, buf []byte, verify bool) (temporal.Period, error) {
	payload, enc, p, err := parsePage(s, buf, verify)
	if err != nil {
		return p, err
	}
	if len(dst.cells) != s.CellCount() {
		return p, fmt.Errorf("cube: decode target has %d cells, schema wants %d", len(dst.cells), s.CellCount())
	}
	if err := decodePayloadInto(dst.cells, enc, payload); err != nil {
		return p, err
	}
	return p, nil
}

// decodePayloadInto dispatches a validated payload to its encoding's decoder,
// overwriting every cell of dst. It allocates nothing.
//
//rased:hotpath
func decodePayloadInto(dst []uint64, enc byte, payload []byte) error {
	switch enc {
	case EncSparse:
		return decodeSparseInto(dst, payload)
	case EncDelta:
		return decodeDeltaInto(dst, payload)
	default:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
		return nil
	}
}
