package tindex

import (
	"context"
	"errors"
	"fmt"

	"rased/internal/cube"
	"rased/internal/temporal"
)

// ErrNotAdjacent reports a period run whose pages are not (or no longer)
// consecutive on disk. Under live ingest this is an expected transient: a
// publish between the caller's ExtentOf probe and the coalesced read moves the
// republished period to a fresh page, breaking the run. A compaction has the
// same effect (the period migrates tiers). Callers should fall back to
// runs of one, which always see a consistent directory.
var ErrNotAdjacent = errors.New("periods are not page-adjacent")

// This file holds the index's one cube-read implementation. A fetch is a run
// of periods whose pages (or cold extents) are adjacent on disk, served by a
// single pagestore.ReadPagesCtx call — one syscall and one injected-latency
// sleep for the whole run — into a recycled buffer, and decoded page by page;
// a single period is the run of one. Fetch/FetchCtx wrap it for the build
// side (an owned, always-verified cube), FetchRunPooledCtx for queries
// (decode targets recycled through the index's PagePool).
//
// Runs are tier-aware: a run must live entirely in one tier (all hot pages or
// all cold extents) — the tiers are separate files, so a mixed run cannot be
// one I/O and comes back ErrNotAdjacent. Cold adjacency means each extent
// starts exactly where the previous one ends (id + slots).
//
// Ownership of pooled cubes is documented in DESIGN.md ("Hot-path memory
// model"): the caller owns the returned cubes and either releases them with
// ReleasePooled once done, or — when they may be shared with a cache or
// another query — never releases them and leaves them to the garbage
// collector.

// ReleasePooled returns a cube obtained from FetchRunPooledCtx to the pool.
// Only the cube's sole owner may call it: once a cube has been published to a
// cache or another goroutine, it must never be released.
func (ix *Index) ReleasePooled(cb *cube.Cube) {
	ix.pool.PutCube(cb)
}

// runRefs resolves ps to storage references and verifies they form one
// strictly consecutive run in a single tier: hot pages must be consecutive
// ids, cold extents must each start where the previous one ends. The verify
// flag is snapshotted in the same critical section.
func (ix *Index) runRefs(ps []temporal.Period) (refs []pageRef, verify bool, err error) {
	if len(ps) == 0 {
		return nil, false, fmt.Errorf("tindex: empty period run")
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	refs = make([]pageRef, len(ps))
	for i, p := range ps {
		if _, bad := ix.quarantined[p]; bad {
			return nil, false, fmt.Errorf("tindex: period %v quarantined: %w", p, ErrCorruptPage)
		}
		var ref pageRef
		if page, ok := ix.pages[p]; ok {
			ref = pageRef{id: page}
		} else if e, ok := ix.extents[p]; ok {
			ref = pageRef{id: e.id, slots: e.slots, cold: true}
		} else {
			return nil, false, fmt.Errorf("tindex: %w %v", ErrNoCube, p)
		}
		if i > 0 {
			prev := refs[i-1]
			stride := 1 // hot pages occupy one slot each
			if prev.cold {
				stride = prev.slots
			}
			if ref.cold != prev.cold || ref.id != prev.id+stride {
				return nil, false, fmt.Errorf("tindex: %w: %v..%v (page %d after %d)",
					ErrNotAdjacent, ps[0], p, ref.id, prev.id)
			}
		}
		refs[i] = ref
	}
	return refs, ix.verifyReads, nil
}

// readRun issues the single coalesced read for a validated run and returns
// the backing buffer. Hot runs read len(refs) fixed-size pages; cold runs
// read the summed extent slots.
func (ix *Index) readRun(ctx context.Context, refs []pageRef, buf []byte) error {
	if refs[0].cold {
		slots := 0
		for _, r := range refs {
			slots += r.slots
		}
		return ix.retryRead(ctx, func() error { return ix.cold.ReadPagesCtx(ctx, refs[0].id, slots, buf) })
	}
	return ix.retryRead(ctx, func() error { return ix.store.ReadPagesCtx(ctx, refs[0].id, len(refs), buf) })
}

// runLen returns the total byte length of a validated run.
func (ix *Index) runLen(refs []pageRef) int {
	n := 0
	for _, r := range refs {
		n += ix.refLen(r)
	}
	return n
}

// FetchRunPooledCtx reads the cubes for a run of periods whose pages (or
// extents) are adjacent on disk with one coalesced I/O, decoding into pooled
// cubes in period order. Callers discover adjacency with ExtentOf; handing a
// non-adjacent run here is ErrNotAdjacent, not a silent fallback. On success
// the caller owns every returned cube (see ReleasePooled); on error all
// partially decoded cubes are returned to the pool.
func (ix *Index) FetchRunPooledCtx(ctx context.Context, ps []temporal.Period) ([]*cube.Cube, error) {
	return ix.fetchRun(ctx, ps, true)
}

// fetchRun is the read/verify/quarantine implementation under every fetch
// entry point. pooled selects the decode target: a recycled cube from the
// page pool, checksummed per SetVerifyReads (the query path), or a fresh
// cube the caller may keep and mutate, always checksummed (the build side).
func (ix *Index) fetchRun(ctx context.Context, ps []temporal.Period, pooled bool) ([]*cube.Cube, error) {
	defer ix.unpinEpoch(ix.pinEpoch())
	refs, verify, err := ix.runRefs(ps)
	if err != nil {
		return nil, err
	}
	n := ix.runLen(refs)
	pb := ix.runBufs.Get().(*[]byte)
	if cap(*pb) < n {
		*pb = make([]byte, n)
	}
	defer ix.runBufs.Put(pb)
	buf := (*pb)[:n]
	if err := ix.readRun(ctx, refs, buf); err != nil {
		return nil, err
	}
	out := make([]*cube.Cube, 0, len(ps))
	// A failed decode hands every pooled cube of the run back: a corrupt
	// page must not leak decode targets (nor, upstream, poison a cache with
	// a half-decoded cube).
	fail := func(cb *cube.Cube, err error) ([]*cube.Cube, error) {
		if pooled {
			ix.pool.PutCube(cb)
			for _, done := range out {
				ix.pool.PutCube(done)
			}
		}
		return nil, err
	}
	off := 0
	for i, p := range ps {
		n := ix.refLen(refs[i])
		var cb *cube.Cube
		if pooled {
			cb = ix.pool.GetCube()
		} else {
			cb = cube.New(ix.schema)
		}
		got, err := cube.UnmarshalPageInto(ix.schema, cb, buf[off:off+n], verify || !pooled)
		off += n
		if err != nil {
			return fail(cb, ix.decodeErr(p, refs[i].id, err))
		}
		if got != p {
			return fail(cb, ix.mismatchErr(p, got, refs[i].id))
		}
		out = append(out, cb)
	}
	return out, nil
}
