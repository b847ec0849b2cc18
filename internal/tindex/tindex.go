// Package tindex implements RASED's hierarchical temporal index (Section
// VI-A): precomputed data cubes at daily, weekly, monthly, and yearly
// granularity, each stored in one fixed-size disk page, maintained by daily
// appends with end-of-period rollups and by monthly rebuilds when the monthly
// crawler refines update types.
//
// The number of levels is configurable (1 = daily only, the paper's flat
// RASED-F baseline; 4 = the full hierarchy) so the experiments of Figures 8
// and 9 can compare variants.
package tindex

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"rased/internal/cube"
	"rased/internal/pagestore"
	"rased/internal/temporal"
)

// sortPeriods orders same-level periods chronologically.
func sortPeriods(ps []temporal.Period) {
	sort.Slice(ps, func(a, b int) bool { return ps[a].Index < ps[b].Index })
}

const (
	cubesFile     = "cubes.db"
	coldCubesFile = "cubes_cold.db"
	metaFile      = "index.json"
)

// extentRef locates one compressed cube in the cold store: its first 4 KiB
// slot and how many consecutive slots it occupies.
type extentRef struct {
	id    int
	slots int
}

// Index is the on-disk hierarchical temporal index. The page stores are held
// through the Pager interface so Create/Open options (WithStoreWrapper) can
// interpose a fault-injecting wrapper without the index knowing.
//
// Storage is tiered: the hot store (cubes.db) holds fixed-size dense v1
// pages, one per period, written by the batch and live ingest paths; the cold
// store (cubes_cold.db) holds variable-length compressed v2 extents in 4 KiB
// slots, written only by the compactor (compact.go). A period lives in
// exactly one tier; the fetch paths resolve either transparently.
type Index struct {
	schema *cube.Schema
	store  pagestore.Pager // hot tier: fixed PageSize(schema) pages
	cold   pagestore.Pager // cold tier: compressed extents in PageAlign slots
	dir    string
	levels int
	pool   *cube.PagePool
	met    *IndexMetrics
	rng    atomic.Uint64 // xorshift64 state for retry backoff jitter

	// runBufs recycles fetchRun's read buffers (*[]byte, grown to the longest
	// run read): zeroing a fresh multi-page buffer per run costs as much as
	// reading into it.
	runBufs sync.Pool

	mu          sync.RWMutex
	pages       map[temporal.Period]int       // hot tier directory
	extents     map[temporal.Period]extentRef // cold tier directory
	quarantined map[temporal.Period]int       // periods whose pages failed validation
	retry       RetryPolicy
	minDay      temporal.Day
	maxDay      temporal.Day
	empty       bool
	verifyReads bool

	// Live-ingest epoch state (see epoch.go). epoch is the published epoch
	// counter; live gates the per-fetch pin so batch deployments pay one
	// atomic load. lmu guards the pin/retire/free/durable bookkeeping — it is
	// ordered after mu (mu may be held when taking lmu, never the reverse).
	epoch       atomic.Uint64
	live        atomic.Bool
	lmu         sync.Mutex
	pins        map[uint64]int // pinned epoch token (epoch+1) -> reader count
	retired     []retiredPage
	freePages   []int
	freeExtents []extentRef
	durable     map[int]bool // hot page ids referenced by the last synced meta
	durableCold map[int]bool // cold extent ids referenced by the last synced meta
}

// pageRef locates one period's cube in either tier: a hot page (slots == 0)
// or a cold extent of `slots` PageAlign slots.
type pageRef struct {
	id    int
	slots int
	cold  bool
}

type metaEntry struct {
	Level int  `json:"level"`
	Index int  `json:"index"`
	Page  int  `json:"page"`
	Slots int  `json:"slots,omitempty"`
	Cold  bool `json:"cold,omitempty"`
}

type metaDoc struct {
	SchemaFingerprint uint64      `json:"schema_fingerprint"`
	Levels            int         `json:"levels"`
	Empty             bool        `json:"empty"`
	MinDay            int         `json:"min_day"`
	MaxDay            int         `json:"max_day"`
	Epoch             uint64      `json:"epoch,omitempty"`
	Entries           []metaEntry `json:"entries"`
}

// openPager opens the hot cube page store for dir and applies the configured
// wrapper, if any.
func openPager(dir string, schema *cube.Schema, cfg *config) (pagestore.Pager, error) {
	store, err := pagestore.Open(filepath.Join(dir, cubesFile), cube.PageSize(schema))
	if err != nil {
		return nil, err
	}
	var pager pagestore.Pager = store
	if cfg.wrap != nil {
		pager = cfg.wrap(pager)
	}
	return pager, nil
}

// openColdPager opens the cold extent store for dir — slot size PageAlign,
// extents spanning ceil(encoded/PageAlign) slots — wrapped through its own
// option so fault injection can target either tier independently.
func openColdPager(dir string, cfg *config) (pagestore.Pager, error) {
	store, err := pagestore.Open(filepath.Join(dir, coldCubesFile), cube.PageAlign)
	if err != nil {
		return nil, err
	}
	var pager pagestore.Pager = store
	if cfg.wrapCold != nil {
		pager = cfg.wrapCold(pager)
	}
	return pager, nil
}

// Create initializes a new index in directory dir with the given schema and
// number of levels (1..4). The directory must not already hold an index.
func Create(dir string, schema *cube.Schema, levels int, opts ...Option) (*Index, error) {
	if levels < 1 || levels > temporal.NumLevels {
		return nil, fmt.Errorf("tindex: levels must be 1..%d, got %d", temporal.NumLevels, levels)
	}
	if _, err := os.Stat(filepath.Join(dir, metaFile)); err == nil {
		return nil, fmt.Errorf("tindex: index already exists in %s", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tindex: create dir: %w", err)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	store, err := openPager(dir, schema, &cfg)
	if err != nil {
		return nil, err
	}
	cold, err := openColdPager(dir, &cfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	ix := &Index{
		schema:      schema,
		store:       store,
		cold:        cold,
		dir:         dir,
		levels:      levels,
		pool:        cube.NewPagePool(schema),
		runBufs:     sync.Pool{New: func() any { return new([]byte) }},
		pages:       make(map[temporal.Period]int),
		extents:     make(map[temporal.Period]extentRef),
		quarantined: make(map[temporal.Period]int),
		empty:       true,
		verifyReads: true,
	}
	ix.met = newIndexMetrics(ix)
	ix.rng.Store(0x9E3779B97F4A7C15)
	if err := ix.Sync(); err != nil {
		store.Close()
		cold.Close()
		return nil, err
	}
	return ix, nil
}

// Open loads an existing index from dir. The schema must match the one the
// index was created with.
func Open(dir string, schema *cube.Schema, opts ...Option) (*Index, error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("tindex: open %s: %w", dir, err)
	}
	var doc metaDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("tindex: corrupt meta in %s: %w", dir, err)
	}
	if doc.SchemaFingerprint != schema.Fingerprint() {
		return nil, fmt.Errorf("tindex: schema fingerprint mismatch in %s", dir)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	store, err := openPager(dir, schema, &cfg)
	if err != nil {
		return nil, err
	}
	cold, err := openColdPager(dir, &cfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	ix := &Index{
		schema:      schema,
		store:       store,
		cold:        cold,
		dir:         dir,
		levels:      doc.Levels,
		pool:        cube.NewPagePool(schema),
		runBufs:     sync.Pool{New: func() any { return new([]byte) }},
		pages:       make(map[temporal.Period]int, len(doc.Entries)),
		extents:     make(map[temporal.Period]extentRef),
		quarantined: make(map[temporal.Period]int),
		minDay:      temporal.Day(doc.MinDay),
		maxDay:      temporal.Day(doc.MaxDay),
		empty:       doc.Empty,
		verifyReads: true,
	}
	ix.met = newIndexMetrics(ix)
	ix.rng.Store(0x9E3779B97F4A7C15)
	ix.epoch.Store(doc.Epoch)
	for _, e := range doc.Entries {
		lvl := temporal.Level(e.Level)
		if !lvl.Valid() {
			store.Close()
			cold.Close()
			return nil, fmt.Errorf("tindex: corrupt meta: level %d", e.Level)
		}
		p := temporal.Period{Level: lvl, Index: e.Index}
		if e.Cold {
			if e.Slots < 1 {
				store.Close()
				cold.Close()
				return nil, fmt.Errorf("tindex: corrupt meta: cold entry %v has %d slots", p, e.Slots)
			}
			ix.extents[p] = extentRef{id: e.Page, slots: e.Slots}
			continue
		}
		ix.pages[p] = e.Page
	}
	return ix, nil
}

// Schema returns the index's cube schema.
func (ix *Index) Schema() *cube.Schema { return ix.schema }

// Levels returns the number of hierarchy levels in use.
func (ix *Index) Levels() int { return ix.levels }

// Store exposes the underlying hot page store (for I/O stats and latency
// injection). With a store wrapper installed this is the wrapper, not the
// raw file store.
func (ix *Index) Store() pagestore.Pager { return ix.store }

// ColdStore exposes the underlying cold extent store.
func (ix *Index) ColdStore() pagestore.Pager { return ix.cold }

// Coverage returns the inclusive day range the index covers; ok is false for
// an empty index.
func (ix *Index) Coverage() (lo, hi temporal.Day, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.empty {
		return 0, 0, false
	}
	return ix.minDay, ix.maxDay, true
}

// NumCubes returns the number of cubes per level, across both tiers.
func (ix *Index) NumCubes() map[temporal.Level]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[temporal.Level]int, temporal.NumLevels)
	for p := range ix.pages {
		out[p.Level]++
	}
	for p := range ix.extents {
		out[p.Level]++
	}
	return out
}

// Periods returns every period of the given level that has a cube (in either
// tier), in chronological order.
func (ix *Index) Periods(lvl temporal.Level) []temporal.Period {
	ix.mu.RLock()
	out := make([]temporal.Period, 0, 64)
	for p := range ix.pages {
		if p.Level == lvl {
			out = append(out, p)
		}
	}
	for p := range ix.extents {
		if p.Level == lvl {
			out = append(out, p)
		}
	}
	ix.mu.RUnlock()
	sortPeriods(out)
	return out
}

// PageOf returns the hot page id holding period p's cube, if any; compacted
// (cold) periods report false. Fetch planners use the tier-aware ExtentOf.
func (ix *Index) PageOf(p temporal.Period) (int, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	page, ok := ix.pages[p]
	return page, ok
}

// ExtentOf reports where period p's cube lives: its first slot id, slot
// count, and tier. A hot page is one slot of the hot store (slot unit =
// PageSize); a cold extent spans `slots` PageAlign-sized slots of the cold
// store. Two same-tier periods are adjacent on disk — servable by one
// coalesced read — exactly when next.id == prev.id + prev.slots with hot
// slots counted as 1. Ids of different tiers are unrelated address spaces.
func (ix *Index) ExtentOf(p temporal.Period) (id, slots int, cold, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if page, hot := ix.pages[p]; hot {
		return page, 1, false, true
	}
	if e, c := ix.extents[p]; c {
		return e.id, e.slots, true, true
	}
	return 0, 0, false, false
}

// Pool returns the index's page pool: recycled page buffers and decode-target
// cubes for the pooled fetch path. See DESIGN.md's "Hot-path memory model"
// for the ownership rules.
func (ix *Index) Pool() *cube.PagePool { return ix.pool }

// Has reports whether the index holds a usable cube for period p.
// Quarantined periods are excluded: the level optimizer consults Has, so a
// corrupt monthly cube drops out of new plans and queries route to its
// constituents instead.
func (ix *Index) Has(p temporal.Period) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if _, bad := ix.quarantined[p]; bad {
		return false
	}
	if _, ok := ix.pages[p]; ok {
		return true
	}
	_, ok := ix.extents[p]
	return ok
}

// HasCube reports whether the index's directory holds a page for p,
// quarantined or not. Maintenance paths use it: a rollup rewrite of a
// quarantined parent repairs the page, so quarantine must not hide it.
func (ix *Index) HasCube(p temporal.Period) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if _, ok := ix.pages[p]; ok {
		return true
	}
	_, ok := ix.extents[p]
	return ok
}

// refLen returns the read-buffer length for one tiered reference. A cold
// extent never exceeds the hot page size (the v2 dense encoding is the v1
// payload), so a pooled page buffer always fits either tier.
func (ix *Index) refLen(ref pageRef) int {
	if ref.cold {
		return ref.slots * cube.PageAlign
	}
	return ix.store.PageSize()
}

// readRef reads the page or extent behind ref into buf, whose length must be
// refLen(ref).
func (ix *Index) readRef(ctx context.Context, ref pageRef, buf []byte) error {
	if ref.cold {
		return ix.cold.ReadPagesCtx(ctx, ref.id, ref.slots, buf)
	}
	return ix.store.ReadPageCtx(ctx, ref.id, buf)
}

// Fetch reads the cube for period p from disk (one page or extent I/O) into
// a cube the caller owns and may mutate — the build side's read: rollups,
// live folds, compaction, cache preload. Queries use FetchRunPooledCtx.
func (ix *Index) Fetch(p temporal.Period) (*cube.Cube, error) {
	return ix.FetchCtx(context.Background(), p)
}

// FetchCtx is Fetch honoring a context.
func (ix *Index) FetchCtx(ctx context.Context, p temporal.Period) (*cube.Cube, error) {
	cubes, err := ix.fetchRun(ctx, []temporal.Period{p}, false)
	if err != nil {
		return nil, err
	}
	return cubes[0], nil
}

// SetVerifyReads toggles checksum verification on the query fetch path
// (enabled by default; maintenance paths always verify).
func (ix *Index) SetVerifyReads(v bool) {
	ix.mu.Lock()
	ix.verifyReads = v
	ix.mu.Unlock()
}

// Scrub re-reads every cube page and cold extent, verifying checksums and
// that each holds the period the directory claims. It is the maintenance
// counterpart of disabling per-read verification on the query path, and it
// drives the quarantine lifecycle both ways: a page that now verifies is
// released from quarantine (someone rewrote it), and a page that fails is
// quarantined so the query path stops trusting it. Returns the number of
// pages checked; the error identifies the first bad page.
func (ix *Index) Scrub() (checked int, err error) {
	return ix.ScrubCtx(context.Background())
}

// ScrubCtx is Scrub honoring a context.
func (ix *Index) ScrubCtx(ctx context.Context) (checked int, err error) {
	ix.mu.RLock()
	dir := make(map[temporal.Period]pageRef, len(ix.pages)+len(ix.extents))
	for p, page := range ix.pages {
		dir[p] = pageRef{id: page}
	}
	for p, e := range ix.extents {
		dir[p] = pageRef{id: e.id, slots: e.slots, cold: true}
	}
	ix.mu.RUnlock()

	buf := make([]byte, ix.store.PageSize())
	for p, ref := range dir {
		rb := buf[:ix.refLen(ref)]
		if rerr := ix.readRef(ctx, ref, rb); rerr != nil {
			if err == nil {
				err = fmt.Errorf("tindex: scrub %v: %w", p, rerr)
			}
			continue
		}
		if _, got, derr := cube.UnmarshalPageReader(ix.schema, rb, true); derr != nil {
			ix.quarantinePage(p, ref.id)
			if err == nil {
				err = fmt.Errorf("tindex: scrub %v (page %d): %w: %w", p, ref.id, ErrCorruptPage, derr)
			}
			continue
		} else if got != p {
			ix.quarantinePage(p, ref.id)
			if err == nil {
				err = fmt.Errorf("tindex: scrub: page %d holds %v, directory says %v: %w", ref.id, got, p, ErrCorruptPage)
			}
			continue
		}
		ix.clearQuarantine(p)
		checked++
	}
	return checked, err
}

// writeCube stores cb under period p in the hot tier, reusing the period's
// existing hot page when present and appending a new page otherwise. The
// page image is marshaled into a pooled buffer — the ingest path calls this
// for every day and rollup, and a fresh full-page allocation per call was
// measurable garbage. A period previously compacted cold is pulled back hot
// (a batch rewrite means it is no longer immutable history); its extent is
// retired through the epoch machinery so pinned readers drain first.
func (ix *Index) writeCube(p temporal.Period, cb *cube.Cube) error {
	pb := ix.pool.GetBuf()
	defer ix.pool.PutBuf(pb)
	buf, err := cube.MarshalPageInto(*pb, cb, p)
	if err != nil {
		return err
	}
	ix.mu.Lock()
	page, exists := ix.pages[p]
	ix.mu.Unlock()
	if exists {
		return ix.store.WritePage(page, buf)
	}
	page, err = ix.store.Append(buf)
	if err != nil {
		return err
	}
	ix.mu.Lock()
	ix.pages[p] = page
	ext, wasCold := ix.extents[p]
	delete(ix.extents, p)
	ix.mu.Unlock()
	if wasCold {
		ix.retireExtent(ext)
	}
	return nil
}

// writeCubeRepair is writeCube plus quarantine release: a successful rewrite
// of a period's page makes it trustworthy again.
func (ix *Index) writeCubeRepair(p temporal.Period, cb *cube.Cube) error {
	if err := ix.writeCube(p, cb); err != nil {
		return err
	}
	ix.clearQuarantine(p)
	return nil
}

// rollup builds the cube for period p by reading and merging its children
// (which must all exist), then writes it.
func (ix *Index) rollup(p temporal.Period) error {
	sum := cube.New(ix.schema)
	for _, c := range p.Children() {
		child, err := ix.Fetch(c)
		if err != nil {
			return fmt.Errorf("tindex: rollup %v: %w", p, err)
		}
		if err := sum.Merge(child); err != nil {
			return fmt.Errorf("tindex: rollup %v: %w", p, err)
		}
	}
	return ix.writeCubeRepair(p, sum)
}

// AppendDay ingests one day's cube. Days must be appended in strictly
// consecutive order. When the day closes a week, month, or year (and the
// index has the corresponding level), the parent cubes are rolled up, exactly
// as the paper's daily maintenance does.
func (ix *Index) AppendDay(d temporal.Day, dayCube *cube.Cube) error {
	ix.mu.RLock()
	empty, maxDay := ix.empty, ix.maxDay
	ix.mu.RUnlock()
	if !empty && d != maxDay+1 {
		return fmt.Errorf("tindex: non-consecutive append: have up to %v, got %v", maxDay, d)
	}
	if err := ix.writeCubeRepair(temporal.DayPeriod(d), dayCube); err != nil {
		return err
	}
	ix.mu.Lock()
	if ix.empty {
		ix.minDay = d
		ix.empty = false
	}
	ix.maxDay = d
	ix.mu.Unlock()
	return ix.maybeRollup(d)
}

// maybeRollup performs the end-of-period rollups for day d. A parent is only
// built when the index fully covers it (relevant for deployments that start
// mid-week or mid-year).
func (ix *Index) maybeRollup(d temporal.Day) error {
	covers := func(p temporal.Period) bool {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		return p.Start() >= ix.minDay
	}
	if ix.levels >= 2 && temporal.IsEndOfWeek(d) {
		if w, ok := temporal.WeekPeriod(d); ok && covers(w) {
			if err := ix.rollup(w); err != nil {
				return err
			}
		}
	}
	if ix.levels >= 3 && temporal.IsEndOfMonth(d) {
		if m := temporal.MonthPeriod(d); covers(m) {
			if err := ix.rollup(m); err != nil {
				return err
			}
		}
	}
	if ix.levels >= 4 && temporal.IsEndOfYear(d) {
		if y := temporal.YearPeriod(d); covers(y) {
			if err := ix.rollup(y); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReplaceDays is the monthly-rebuild path (Section VI-A, "Index Maintenance
// with Monthly Updates"): the given day cubes overwrite the stored ones, and
// every complete week, month, and year touched is rebuilt from its children.
// Days must already be covered by the index.
func (ix *Index) ReplaceDays(days map[temporal.Day]*cube.Cube) error {
	ix.mu.RLock()
	lo, hi, empty := ix.minDay, ix.maxDay, ix.empty
	ix.mu.RUnlock()
	touched := make(map[temporal.Period]bool)
	for d, cb := range days {
		if empty || d < lo || d > hi {
			return fmt.Errorf("tindex: ReplaceDays: day %v outside coverage", d)
		}
		if err := ix.writeCubeRepair(temporal.DayPeriod(d), cb); err != nil {
			return err
		}
		p := temporal.DayPeriod(d)
		for {
			parent, ok := p.Parent()
			if !ok {
				break
			}
			touched[parent] = true
			p = parent
		}
	}
	// Rebuild fine-to-coarse so parents read refreshed children.
	for _, lvl := range []temporal.Level{temporal.Weekly, temporal.Monthly, temporal.Yearly} {
		if int(lvl) >= ix.levels {
			break
		}
		for p := range touched {
			if p.Level != lvl {
				continue
			}
			// HasCube, not Has: a quarantined parent must still be rebuilt —
			// the rollup rewrite is what repairs it.
			if ix.HasCube(p) {
				if err := ix.rollup(p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Sync persists the directory and flushes both page stores. In live mode a
// successful Sync also becomes the new durability checkpoint: the page and
// extent ids the persisted meta references are snapshotted as the durable
// sets, and neither PublishEpoch nor the compactor ever recycles a durable
// page — so a crash between checkpoints always reopens to exactly the state
// this Sync wrote.
func (ix *Index) Sync() error {
	ix.mu.RLock()
	doc := metaDoc{
		SchemaFingerprint: ix.schema.Fingerprint(),
		Levels:            ix.levels,
		Empty:             ix.empty,
		MinDay:            int(ix.minDay),
		MaxDay:            int(ix.maxDay),
		Epoch:             ix.epoch.Load(),
		Entries:           make([]metaEntry, 0, len(ix.pages)+len(ix.extents)),
	}
	for p, page := range ix.pages {
		doc.Entries = append(doc.Entries, metaEntry{Level: int(p.Level), Index: p.Index, Page: page})
	}
	for p, e := range ix.extents {
		doc.Entries = append(doc.Entries, metaEntry{Level: int(p.Level), Index: p.Index, Page: e.id, Slots: e.slots, Cold: true})
	}
	ix.mu.RUnlock()
	raw, err := json.Marshal(&doc)
	if err != nil {
		return fmt.Errorf("tindex: marshal meta: %w", err)
	}
	tmp := filepath.Join(ix.dir, metaFile+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("tindex: write meta: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(ix.dir, metaFile)); err != nil {
		return fmt.Errorf("tindex: install meta: %w", err)
	}
	if err := ix.store.Sync(); err != nil {
		return err
	}
	if err := ix.cold.Sync(); err != nil {
		return err
	}
	if ix.live.Load() {
		durable := make(map[int]bool, len(doc.Entries))
		durableCold := make(map[int]bool)
		for _, e := range doc.Entries {
			if e.Cold {
				durableCold[e.Page] = true
			} else {
				durable[e.Page] = true
			}
		}
		ix.lmu.Lock()
		ix.durable = durable
		ix.durableCold = durableCold
		ix.lmu.Unlock()
	}
	return nil
}

// Close syncs and releases the index.
func (ix *Index) Close() error {
	if err := ix.Sync(); err != nil {
		ix.store.Close()
		ix.cold.Close()
		return err
	}
	err := ix.store.Close()
	if cerr := ix.cold.Close(); err == nil {
		err = cerr
	}
	return err
}
