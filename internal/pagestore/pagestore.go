// Package pagestore provides the fixed-size-page disk files underneath
// RASED's index, warehouse, and the baseline DBMS. It counts page I/Os (the
// paper reasons about index maintenance and query cost in I/Os) and can
// inject a per-read latency to model a cold production disk on hardware whose
// page cache would otherwise hide the cost difference the experiments
// measure.
package pagestore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rased/internal/obs"
)

// Typed sentinel errors. Every bad-argument failure of the read/write paths
// wraps one of these with %w, so callers distinguish "you handed me the wrong
// buffer" from "that page does not exist" with errors.Is instead of string
// matching.
var (
	// ErrShortPage reports a buffer whose length does not match the page
	// bounds of the operation (one page, or n pages for a coalesced read).
	ErrShortPage = errors.New("buffer does not match page bounds")
	// ErrOutOfRange reports a page id outside the store's current allocation.
	ErrOutOfRange = errors.New("page id out of range")
	// ErrTransient classifies an I/O failure as retryable: the same operation
	// may succeed if reissued (a flaky bus, a momentary EIO, an injected
	// fault). Real stores never return it — it exists so fault-injecting
	// wrappers (internal/faultstore) and retry loops (tindex) agree on which
	// failures a bounded retry is allowed to absorb. Permanent failures must
	// NOT wrap it.
	ErrTransient = errors.New("transient I/O error")
)

// Pager is the read/write surface of a page store. *Store implements it;
// internal/faultstore wraps any Pager to inject deterministic faults, and
// tindex holds its store through this interface so the wrapper can be slotted
// in underneath the index without the index knowing.
type Pager interface {
	PageSize() int
	NumPages() int
	SizeBytes() int64
	ReadPage(id int, buf []byte) error
	ReadPageCtx(ctx context.Context, id int, buf []byte) error
	ReadPagesCtx(ctx context.Context, id, n int, buf []byte) error
	WritePage(id int, buf []byte) error
	Append(buf []byte) (int, error)
	WriteExtent(id int, buf []byte) error
	AppendExtent(buf []byte) (id, slots int, err error)
	Stats() Stats
	ResetStats()
	Sync() error
	Close() error
	Path() string
	Metrics() *Metrics
	SetReadLatency(d time.Duration)
	ReadLatency() time.Duration
}

var _ Pager = (*Store)(nil)

// Stats is a snapshot of I/O counters.
type Stats struct {
	Reads  int64
	Writes int64
}

// Metrics are the store's obs instruments. They back the Stats() API: the
// counters ARE the store's read/write counts, so polling Stats and scraping
// /metrics always agree. Labeled by the store file's base name so the index,
// warehouse heap, and DBMS table each export distinct series.
type Metrics struct {
	Reads          *obs.Counter
	Writes         *obs.Counter
	CoalescedReads *obs.Counter
	ReadLatency    *obs.Histogram
	Pages          *obs.GaugeFunc
}

// All returns the instruments for registry wiring.
func (m *Metrics) All() []obs.Metric {
	return []obs.Metric{m.Reads, m.Writes, m.CoalescedReads, m.ReadLatency, m.Pages}
}

// Store is a file of fixed-size pages addressed by page number.
type Store struct {
	path     string
	pageSize int

	mu     sync.Mutex
	f      *os.File
	nPages int

	met     *Metrics
	latency atomic.Int64 // injected nanoseconds per page read
}

// Open opens (or creates) a page store at path. An existing file must be an
// exact multiple of pageSize.
func Open(path string, pageSize int) (*Store, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("pagestore: invalid page size %d", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagestore: stat %s: %w", path, err)
	}
	if fi.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("pagestore: %s size %d is not a multiple of page size %d", path, fi.Size(), pageSize)
	}
	s := &Store{
		path:     path,
		pageSize: pageSize,
		f:        f,
		nPages:   int(fi.Size() / int64(pageSize)),
	}
	lbl := obs.L("store", filepath.Base(path))
	s.met = &Metrics{
		Reads:          obs.NewCounter("rased_pagestore_reads_total", "Pages read from disk.", lbl),
		Writes:         obs.NewCounter("rased_pagestore_writes_total", "Pages written to disk.", lbl),
		CoalescedReads: obs.NewCounter("rased_pagestore_coalesced_reads_total", "Multi-page runs served by a single ReadAt.", lbl),
		ReadLatency:    obs.NewHistogram("rased_pagestore_read_latency_seconds", "Page read latency including injected disk latency.", nil, lbl),
		Pages:          obs.NewGaugeFunc("rased_pagestore_pages", "Current number of pages in the file.", func() float64 { return float64(s.NumPages()) }, lbl),
	}
	return s, nil
}

// Metrics returns the store's obs instruments for registry wiring.
func (s *Store) Metrics() *Metrics { return s.met }

// PageSize returns the store's page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// NumPages returns the current number of pages.
func (s *Store) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nPages
}

// SizeBytes returns the store's size in bytes.
func (s *Store) SizeBytes() int64 {
	return int64(s.NumPages()) * int64(s.pageSize)
}

// SetReadLatency injects a fixed delay per page read, modeling a slower disk.
// Zero (the default) disables injection.
func (s *Store) SetReadLatency(d time.Duration) {
	s.latency.Store(int64(d))
}

// ReadLatency returns the injected per-read latency.
func (s *Store) ReadLatency() time.Duration {
	return time.Duration(s.latency.Load())
}

// ReadPage reads page id into buf (which must be exactly one page long).
func (s *Store) ReadPage(id int, buf []byte) error {
	return s.ReadPageCtx(context.Background(), id, buf)
}

// ReadPageCtx reads page id into buf, honoring ctx: an already-cancelled
// context reads nothing, and the injected disk latency aborts early when ctx
// ends mid-sleep. The read itself runs outside the store mutex (pread is
// position-less), so concurrent page reads proceed in parallel; the mutex
// only guards the allocation snapshot.
func (s *Store) ReadPageCtx(ctx context.Context, id int, buf []byte) error {
	if len(buf) != s.pageSize {
		return fmt.Errorf("pagestore: read buffer is %d bytes, page size is %d: %w", len(buf), s.pageSize, ErrShortPage)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	s.mu.Lock()
	n := s.nPages
	s.mu.Unlock()
	if id < 0 || id >= n {
		return fmt.Errorf("pagestore: read page %d out of range [0,%d): %w", id, n, ErrOutOfRange)
	}
	if _, err := s.f.ReadAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("pagestore: read page %d: %w", id, err)
	}
	s.met.Reads.Inc()
	if d := s.latency.Load(); d > 0 {
		t := time.NewTimer(time.Duration(d))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			s.met.ReadLatency.Observe(time.Since(start))
			return ctx.Err()
		}
	}
	s.met.ReadLatency.Observe(time.Since(start))
	return nil
}

// ReadPagesCtx reads n consecutive pages starting at page id into buf (which
// must be exactly n pages long) with a single ReadAt. This is the coalesced
// read underneath tindex run fetches: a run of adjacent plan pages costs one
// syscall and one injected-latency sleep instead of n, which is where
// sequential scans win. Counters record n page reads (Stats stays an I/O
// count in pages, as the paper reasons) plus one coalesced read.
func (s *Store) ReadPagesCtx(ctx context.Context, id, n int, buf []byte) error {
	if n <= 0 {
		return fmt.Errorf("pagestore: coalesced read of %d pages: %w", n, ErrOutOfRange)
	}
	if n == 1 {
		return s.ReadPageCtx(ctx, id, buf)
	}
	if len(buf) != n*s.pageSize {
		return fmt.Errorf("pagestore: read buffer is %d bytes, %d pages need %d: %w", len(buf), n, n*s.pageSize, ErrShortPage)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	s.mu.Lock()
	total := s.nPages
	s.mu.Unlock()
	if id < 0 || id+n > total {
		return fmt.Errorf("pagestore: read pages [%d,%d) out of range [0,%d): %w", id, id+n, total, ErrOutOfRange)
	}
	if _, err := s.f.ReadAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("pagestore: read pages [%d,%d): %w", id, id+n, err)
	}
	s.met.Reads.Add(int64(n))
	s.met.CoalescedReads.Inc()
	if d := s.latency.Load(); d > 0 {
		t := time.NewTimer(time.Duration(d))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			s.met.ReadLatency.Observe(time.Since(start))
			return ctx.Err()
		}
	}
	s.met.ReadLatency.Observe(time.Since(start))
	return nil
}

// WritePage writes buf (exactly one page) to page id. Writing to page
// NumPages() extends the file by one page; writing further beyond the end is
// an error. Allocation is decided under the mutex, but the write itself runs
// outside it (pwrite), so writes do not stall concurrent reads. If an
// extending write fails at the disk, the allocated page stays behind as a
// hole whose checksum can never verify — the same torn state a crashed
// in-place write leaves, handled by the same scrub path.
func (s *Store) WritePage(id int, buf []byte) error {
	if len(buf) != s.pageSize {
		return fmt.Errorf("pagestore: write buffer is %d bytes, page size is %d: %w", len(buf), s.pageSize, ErrShortPage)
	}
	s.mu.Lock()
	if id < 0 || id > s.nPages {
		n := s.nPages
		s.mu.Unlock()
		return fmt.Errorf("pagestore: write page %d out of range [0,%d]: %w", id, n, ErrOutOfRange)
	}
	if id == s.nPages {
		s.nPages++
	}
	s.mu.Unlock()
	if _, err := s.f.WriteAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("pagestore: write page %d: %w", id, err)
	}
	s.met.Writes.Inc()
	return nil
}

// Append writes buf as a new page and returns its id. The id is reserved
// under the mutex, so concurrent appends never collide.
func (s *Store) Append(buf []byte) (int, error) {
	if len(buf) != s.pageSize {
		return 0, fmt.Errorf("pagestore: write buffer is %d bytes, page size is %d: %w", len(buf), s.pageSize, ErrShortPage)
	}
	s.mu.Lock()
	id := s.nPages
	s.nPages++
	s.mu.Unlock()
	if _, err := s.f.WriteAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return 0, fmt.Errorf("pagestore: write page %d: %w", id, err)
	}
	s.met.Writes.Inc()
	return id, nil
}

// WriteExtent writes buf — a positive multiple of the page size — to the
// consecutive slots starting at page id. Like WritePage, an extent starting
// exactly at NumPages() extends the file; an extent reaching beyond the end
// from inside is an error (it would silently allocate unreachable holes).
// Slot reservation happens under the mutex, the write outside it.
func (s *Store) WriteExtent(id int, buf []byte) error {
	slots, err := s.extentSlots(buf)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if id < 0 || id > s.nPages || (id < s.nPages && id+slots > s.nPages) {
		n := s.nPages
		s.mu.Unlock()
		return fmt.Errorf("pagestore: write extent [%d,%d) out of range [0,%d]: %w", id, id+slots, n, ErrOutOfRange)
	}
	if id == s.nPages {
		s.nPages += slots
	}
	s.mu.Unlock()
	if _, err := s.f.WriteAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("pagestore: write extent [%d,%d): %w", id, id+slots, err)
	}
	s.met.Writes.Add(int64(slots))
	return nil
}

// AppendExtent writes buf — a positive multiple of the page size — as a new
// extent at the end of the file and returns its first slot id and slot count.
// The slots are reserved under the mutex, so concurrent appends never
// overlap; the write itself runs outside it. Extents are read back with
// ReadPagesCtx(id, slots, buf).
func (s *Store) AppendExtent(buf []byte) (int, int, error) {
	slots, err := s.extentSlots(buf)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	id := s.nPages
	s.nPages += slots
	s.mu.Unlock()
	if _, err := s.f.WriteAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return 0, 0, fmt.Errorf("pagestore: write extent [%d,%d): %w", id, id+slots, err)
	}
	s.met.Writes.Add(int64(slots))
	return id, slots, nil
}

// extentSlots validates an extent buffer and returns its slot count.
func (s *Store) extentSlots(buf []byte) (int, error) {
	if len(buf) == 0 || len(buf)%s.pageSize != 0 {
		return 0, fmt.Errorf("pagestore: extent buffer is %d bytes, not a positive multiple of page size %d: %w", len(buf), s.pageSize, ErrShortPage)
	}
	return len(buf) / s.pageSize, nil
}

// Stats returns a snapshot of the I/O counters.
func (s *Store) Stats() Stats {
	return Stats{Reads: s.met.Reads.Value(), Writes: s.met.Writes.Value()}
}

// ResetStats zeroes the I/O counters.
func (s *Store) ResetStats() {
	s.met.Reads.Reset()
	s.met.Writes.Reset()
}

// Sync flushes the file to stable storage. It runs outside the mutex — the
// file handle never changes after Open, and holding the allocation lock
// across an fsync would stall every concurrent read and append for the
// duration of the flush (the lock-held-I/O bug class rased-lint's lockorder
// rule exists to keep out).
func (s *Store) Sync() error {
	return s.f.Sync()
}

// Close closes the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Path returns the file path backing the store.
func (s *Store) Path() string { return s.path }
