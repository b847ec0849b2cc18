package core

import (
	"context"
	"errors"
	"fmt"

	"rased/internal/cube"
	"rased/internal/temporal"
	"rased/internal/tindex"
)

// Degraded-mode execution: when a planned cube turns out to be unreadable
// mid-query — corrupt page, dead sector, exhausted retries — the engine does
// not fail the query. Rollup cubes are exact sums of their children (month =
// 4 fixed weeks + trailing days, week = 7 days, year = 12 months), so the
// coarse cube's contribution can be reconstructed bit-identically from its
// constituents at a measured extra-I/O cost. Only when a LEAF day is itself
// unreadable (or a constituent is missing entirely) is there nothing left to
// substitute, and the query fails with the typed ErrDegraded.
//
// The corrupt page is quarantined by tindex as a side effect of the failed
// fetch, so subsequent plans route around it up front; this file handles the
// query that was already in flight when the corruption surfaced.

// ErrDegraded reports a query that could not be answered exactly: a planned
// cube was unreadable and its constituents could not reconstruct it. Callers
// (the HTTP layer, the chaos harness) match it with errors.Is; the wrapped
// cause chain keeps the failing period and the underlying fault visible.
var ErrDegraded = errors.New("core: degraded: result unavailable")

// fallbackEligible reports whether a failed cube fetch may be replanned
// around. Cancellation is the caller giving up, not the storage failing; a
// missing cube (ErrNoCube) means the plan and index disagree, which
// substitution cannot repair honestly.
func fallbackEligible(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, tindex.ErrNoCube) {
		return false
	}
	return true
}

// planAvail is the availability view the level optimizer plans against.
// Quarantined rollup cubes are hidden (the plan routes to their constituents
// up front), but quarantined LEAF days stay visible: a day has no substitute,
// so hiding it would make the planner fail with an untyped coverage error —
// instead the plan includes the day and its fetch fails through the typed
// degraded path.
type planAvail struct{ ix *tindex.Index }

func (a planAvail) Has(p temporal.Period) bool {
	if p.Level == temporal.Daily {
		return a.ix.HasCube(p)
	}
	return a.ix.Has(p)
}

// fetchFallback reconstructs period p's cube from its constituent cubes
// after a failed fetch. The reconstruction recurses: a corrupt monthly cube
// is summed from its 4 weekly cubes plus trailing days, and if one of those
// weeklies is also unreadable, from that week's 7 dailies — bit-identical to
// the lost rollup, because rollups ARE these sums. Constituents resolve
// through the engine's one read path (cache, coalesced runs, singleflight),
// so a week's seven day pages cost one read and the extra reads warm the
// demand cache for the replanned queries that follow.
func (e *Engine) fetchFallback(ctx context.Context, p temporal.Period, res *Result) (*cube.Cube, error) {
	if p.Level == temporal.Daily {
		// A leaf failed; there is nothing finer to substitute.
		return nil, fmt.Errorf("core: leaf day %v unreadable: %w", p, ErrDegraded)
	}
	sum := cube.New(e.ix.Schema())
	if err := e.reconstruct(ctx, p, sum, res); err != nil {
		return nil, err
	}
	e.met.FallbackReplans.Inc()
	res.Stats.ReplannedPeriods++
	return sum, nil
}

// reconstruct folds every constituent cube of p into sum, recursing through
// constituents that are themselves unreadable.
func (e *Engine) reconstruct(ctx context.Context, p temporal.Period, sum *cube.Cube, res *Result) error {
	children := p.Children()
	rs, err := e.resolve(ctx, children)
	if err != nil {
		if errors.Is(err, tindex.ErrNoCube) {
			return fmt.Errorf("core: period %v: constituent missing (%v): %w", p, err, ErrDegraded)
		}
		return err
	}
	defer e.release(rs)
	for i, c := range children {
		if err := rs[i].err; err != nil {
			if c.Level == temporal.Daily {
				return fmt.Errorf("core: period %v: leaf day %v unreadable (%v): %w", p, c, err, ErrDegraded)
			}
			if err := e.reconstruct(ctx, c, sum, res); err != nil {
				return err
			}
			continue
		}
		res.Stats.FallbackCubes++
		e.met.FallbackCubes.Inc()
		if err := sum.Merge(rs[i].cb); err != nil {
			return fmt.Errorf("core: period %v: constituent %v: %w", p, c, err)
		}
	}
	return nil
}

// Health is the engine's degraded-mode status, surfaced by /healthz.
type Health struct {
	// Degraded is true while any index page is quarantined: answers are
	// still exact (served from constituent cubes), but at extra I/O cost,
	// and the operator should scrub or rebuild.
	Degraded         bool  `json:"degraded"`
	QuarantinedPages int   `json:"quarantined_pages,omitempty"`
	FallbackReplans  int64 `json:"fallback_replans,omitempty"`
	DegradedQueries  int64 `json:"degraded_queries,omitempty"`
}

// Health reports the engine's degraded-mode status.
func (e *Engine) Health() Health {
	q := e.ix.QuarantineCount()
	return Health{
		Degraded:         q > 0,
		QuarantinedPages: q,
		FallbackReplans:  e.met.FallbackReplans.Value(),
		DegradedQueries:  e.met.DegradedQueries.Value(),
	}
}
