// Package harness is the chaos harness: it builds a synthetic RASED index
// over a fault-injecting store, runs a mixed concurrent query workload under
// a scripted fault schedule, and checks the degraded-mode contract — every
// query either returns the exact fault-free answer (bit-identical totals and
// rows) or fails with an error from the typed fault taxonomy. Wrong answers
// and untyped failures are the two bugs the harness exists to catch; both
// fail a run.
//
// The same Run function powers the -race chaos tests (make chaos) and the
// rased-bench faults figure, so the CI invariant and the published
// availability numbers come from one code path.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"rased/internal/core"
	"rased/internal/cube"
	"rased/internal/faultstore"
	"rased/internal/pagestore"
	"rased/internal/temporal"
	"rased/internal/tindex"
)

// Schema is the cube schema chaos runs use: small enough that building
// hundreds of days is cheap, wide enough that pages carry a real payload.
func Schema() *cube.Schema { return cube.ScaledSchema(10, 6) }

// Config controls one chaos run.
type Config struct {
	// Days of coverage appended from 2021-01-01; rollups happen as in
	// production ingest. Default 120.
	Days int
	// Seed drives the data generator, the query schedule, the workers'
	// query picks, and the fault store's PRNG. Same seed, same run.
	Seed int64
	// Queries is the total number of queries issued across all workers.
	// Default 200.
	Queries int
	// Workers is the number of concurrent query goroutines. Default 8.
	Workers int
	// Rules is the fault schedule installed after the oracle pass.
	Rules []faultstore.Rule
	// RuleFunc, when set, computes additional rules from the built index
	// just before the fault phase — for schedules that need page ids which
	// only exist after the build (see DeadRollupRules).
	RuleFunc func(*tindex.Index) []faultstore.Rule
	// Opts overrides the engine options; nil uses the harness default
	// (level optimization, degraded fallback, retries, shared worker pool,
	// no cache so every fetch faces the store).
	Opts *core.Options
	// ScrubEveryN makes each worker run a verifying index scrub every N
	// queries, concurrently with the query load — the maintenance half of
	// the mixed workload, and the mechanism that releases pages quarantined
	// by in-flight read corruption whose on-disk bytes are actually fine.
	// 0 picks the default (50); negative disables scrubbing.
	ScrubEveryN int
}

// DefaultEngineOptions is the engine configuration chaos runs use unless
// overridden: the full resilient read path with the cube cache off, so every
// planned fetch actually crosses the fault-injecting store.
func DefaultEngineOptions() core.Options {
	return core.Options{
		LevelOptimization: true,
		DegradedFallback:  true,
		ReadRetries:       2,
		ReadRetryBackoff:  200 * time.Microsecond,
		FetchWorkers:      4,
		Singleflight:      true,
	}
}

// Report is the outcome of a chaos run.
type Report struct {
	Queries   int   `json:"queries"`
	Exact     int   `json:"exact"`      // answers bit-identical to the oracle
	Replanned int   `json:"replanned"`  // of Exact: used degraded-mode fallback
	TypedFail int   `json:"typed_fail"` // failed with a typed, expected error
	Wrong     int   `json:"wrong"`      // answers that differ from the oracle
	Untyped   int   `json:"untyped"`    // failed outside the typed taxonomy
	Injected  int64 `json:"injected"`   // faults the store injected

	// Elapsed is the wall time of the faulted query phase (excludes the
	// build and the oracle pass), for availability-vs-throughput figures.
	Elapsed time.Duration `json:"elapsed_ns"`

	// FirstViolation describes the first wrong answer or untyped error, for
	// debugging; empty on a clean run.
	FirstViolation string `json:"first_violation,omitempty"`
}

// Clean reports whether the run upheld the degraded-mode contract.
func (r *Report) Clean() bool { return r.Wrong == 0 && r.Untyped == 0 }

// oracle is one scheduled query with its fault-free answer.
type oracle struct {
	q    core.Query
	rows map[string]uint64
	tot  uint64
}

// rowKey flattens a result row's dimension values; rows come back in
// nondeterministic order, so comparisons go through a key map.
func rowKey(r core.Row) string {
	return r.ElementType + "|" + r.Country + "|" + r.RoadType + "|" + r.UpdateType + "|" + r.Period
}

func rowMap(rows []core.Row) map[string]uint64 {
	m := make(map[string]uint64, len(rows))
	for _, r := range rows {
		m[rowKey(r)] += r.Count
	}
	return m
}

func sameRows(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// typedFault reports whether err belongs to the fault taxonomy a degraded
// query is allowed to fail with.
func typedFault(err error) bool {
	return errors.Is(err, core.ErrDegraded) ||
		errors.Is(err, tindex.ErrCorruptPage) ||
		errors.Is(err, tindex.ErrNoCube) ||
		errors.Is(err, pagestore.ErrTransient) ||
		errors.Is(err, faultstore.ErrInjected) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// dayCube builds the deterministic cube for day d (seed-salted, so different
// runs exercise different data).
func dayCube(s *cube.Schema, d temporal.Day, seed int64) *cube.Cube {
	cb := cube.New(s)
	rng := rand.New(rand.NewSource(seed ^ int64(d)*0x9E3779B9))
	de, dc, dr, du := s.Dims()
	for i := 0; i < 2+int(d)%9; i++ {
		cb.Add(rng.Intn(de), rng.Intn(dc), rng.Intn(dr), rng.Intn(du), uint64(1+rng.Intn(3)))
	}
	return cb
}

// Build creates the synthetic index for a chaos run in dir, wrapped in a
// fault store (with no rules yet — the build is fault-free).
func Build(dir string, days int, seed int64) (*tindex.Index, *faultstore.Store, error) {
	var fs *faultstore.Store
	ix, err := tindex.Create(dir, Schema(), temporal.NumLevels,
		tindex.WithStoreWrapper(func(p pagestore.Pager) pagestore.Pager {
			fs = faultstore.New(p, seed)
			return fs
		}))
	if err != nil {
		return nil, nil, err
	}
	lo := temporal.NewDay(2021, time.January, 1)
	for i := 0; i < days; i++ {
		d := lo + temporal.Day(i)
		if err := ix.AppendDay(d, dayCube(ix.Schema(), d, seed)); err != nil {
			ix.Close()
			return nil, nil, fmt.Errorf("harness: append %v: %w", d, err)
		}
	}
	return ix, fs, nil
}

// schedule builds the mixed query workload: random windows at every size from
// a few days to the full coverage, with and without date grouping.
func schedule(n int, lo, hi temporal.Day, seed int64) []core.Query {
	rng := rand.New(rand.NewSource(seed * 0x1000193))
	span := int(hi - lo + 1)
	grans := []core.Granularity{core.None, core.None, core.ByDay, core.ByWeek, core.ByMonth}
	out := make([]core.Query, n)
	for i := range out {
		w := 1 + rng.Intn(span)
		from := lo + temporal.Day(rng.Intn(span-w+1))
		out[i] = core.Query{
			From:    from,
			To:      from + temporal.Day(w-1),
			GroupBy: core.GroupBy{Date: grans[rng.Intn(len(grans))]},
		}
	}
	return out
}

// Run executes one chaos run in dir: build the index, record the fault-free
// oracle for the whole schedule, install the fault rules, then hammer the
// engine from cfg.Workers goroutines and compare every outcome to the oracle.
func Run(ctx context.Context, dir string, cfg Config) (*Report, error) {
	if cfg.Days <= 0 {
		cfg.Days = 120
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 200
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.ScrubEveryN == 0 {
		cfg.ScrubEveryN = 50
	}
	ix, fs, err := Build(dir, cfg.Days, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	opts := DefaultEngineOptions()
	if cfg.Opts != nil {
		opts = *cfg.Opts
	}
	eng, err := core.NewEngine(ix, opts)
	if err != nil {
		return nil, err
	}

	lo, hi, ok := ix.Coverage()
	if !ok {
		return nil, fmt.Errorf("harness: empty index after build")
	}
	// Distinct query shapes; workers draw from these so each shape is hit
	// repeatedly under different fault interleavings.
	nShapes := cfg.Queries
	if nShapes > 64 {
		nShapes = 64
	}
	qs := schedule(nShapes, lo, hi, cfg.Seed)
	oracles := make([]oracle, len(qs))
	for i, q := range qs {
		res, err := eng.AnalyzeContext(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("harness: oracle query %d: %w", i, err)
		}
		oracles[i] = oracle{q: q, rows: rowMap(res.Rows), tot: res.Total}
	}

	injectedBefore := fs.Injected()
	for _, r := range cfg.Rules {
		fs.AddRule(r)
	}
	if cfg.RuleFunc != nil {
		for _, r := range cfg.RuleFunc(ix) {
			fs.AddRule(r)
		}
	}

	rep := &Report{Queries: cfg.Queries}
	phaseStart := time.Now()
	var mu sync.Mutex
	violation := func(format string, args ...any) {
		if rep.FirstViolation == "" {
			rep.FirstViolation = fmt.Sprintf(format, args...)
		}
	}
	var wg sync.WaitGroup
	perWorker := cfg.Queries / cfg.Workers
	extra := cfg.Queries % cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		n := perWorker
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*0x9E3779B9 + 1))
			for i := 0; i < n; i++ {
				if cfg.ScrubEveryN > 0 && i%cfg.ScrubEveryN == cfg.ScrubEveryN-1 {
					// Maintenance interleaved with queries: the scrub itself
					// reads through the fault store, so it may fail or even
					// quarantine further pages — both are legitimate.
					ix.ScrubCtx(ctx)
				}
				oi := rng.Intn(len(oracles))
				o := &oracles[oi]
				res, err := eng.AnalyzeContext(ctx, o.q)
				mu.Lock()
				switch {
				case err == nil && res.Total == o.tot && sameRows(rowMap(res.Rows), o.rows):
					rep.Exact++
					if res.Stats.ReplannedPeriods > 0 {
						rep.Replanned++
					}
				case err == nil:
					rep.Wrong++
					violation("worker %d query %d [%v..%v]: total %d, oracle %d",
						w, oi, o.q.From, o.q.To, res.Total, o.tot)
				case typedFault(err):
					rep.TypedFail++
				default:
					rep.Untyped++
					violation("worker %d query %d: untyped error: %v", w, oi, err)
				}
				mu.Unlock()
			}
		}(w, n)
	}
	wg.Wait()
	rep.Elapsed = time.Since(phaseStart)
	rep.Injected = fs.Injected() - injectedBefore
	return rep, nil
}

// RateRules is the standard chaos fault mix at probability p per page access:
// transient read errors (retryable), read-side corruption (quarantine +
// replan), and torn writes are not included since the workload is read-only.
func RateRules(p float64) []faultstore.Rule {
	if p <= 0 {
		return nil
	}
	return []faultstore.Rule{
		{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: -1, Prob: p / 2},
		{Op: faultstore.OpRead, Kind: faultstore.KindCorrupt, Page: -1, Prob: p / 2},
	}
}

// DeadRollupRules returns persistent read-corruption rules covering every
// monthly rollup page in the index — the dead-sector scenario degraded-mode
// replanning exists for. With fallback on, every query stays exact: the first
// hit per month reconstructs from constituents and the quarantine steers
// later plans around the page up front. With fallback off, queries fail typed
// until the quarantine reroutes them.
func DeadRollupRules(ix *tindex.Index) []faultstore.Rule {
	lo, hi, ok := ix.Coverage()
	if !ok {
		return nil
	}
	seen := map[int]bool{}
	var rules []faultstore.Rule
	for d := lo; d <= hi; d++ {
		page, ok := ix.PageOf(temporal.MonthPeriod(d))
		if !ok || seen[page] {
			continue
		}
		seen[page] = true
		rules = append(rules, faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindCorrupt, Page: page})
	}
	return rules
}

// ParseRate is a convenience for flags: "0.01" -> RateRules(0.01).
func ParseRate(s string) ([]faultstore.Rule, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || p < 0 || p > 1 {
		return nil, fmt.Errorf("harness: fault rate %q must be a probability in [0,1]", s)
	}
	return RateRules(p), nil
}
