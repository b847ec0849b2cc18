package harness

// Chaos composition: overload AND faults at the same time. The plain Run
// proves the exact-or-typed-error contract under a fault schedule; the QoS
// layer proves priority admission and result caching under overload. Real
// incidents do not pick one — a fault burst slows queries down, the queue
// backs up, shedding starts, and the result cache serves whatever it may —
// so RunComposed drives both at once and asserts both contracts at once:
//
//   - Exact-or-typed (PR 5): every historical query either matches its
//     fault-free oracle bit-for-bit or fails with a typed error. Shedding
//     (exec.ErrRejected, exec.ErrThrottled) is a typed outcome — overload
//     turns answers into 429/503s, never into wrong answers.
//   - Epoch monotonicity (PR 6): while a publisher goroutine folds new
//     epochs into a hot day, any worker's successive answers for the same
//     live query must be non-decreasing and never below the first published
//     baseline. A result cache serving a retired epoch is exactly what this
//     oracle catches.
//
// Load comes from a workload.Generate trace, not a uniform schedule: Zipf
// tenants make the per-tenant limiter bite unevenly, session replays give
// the result cache real hits, and the class mix exercises priority
// admission — the composition is only honest if the traffic is.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rased/internal/core"
	"rased/internal/cube"
	"rased/internal/exec"
	"rased/internal/faultstore"
	"rased/internal/temporal"
	"rased/internal/workload"
)

// ComposedConfig controls one composed overload+faults chaos run.
type ComposedConfig struct {
	// Days of historical coverage; the live hot day is appended after it.
	// Default 120.
	Days int
	// Seed drives the data, the workload trace, and the fault store.
	Seed int64
	// Workers is the number of closed-loop replay goroutines. Overload is
	// real concurrency pressure: set Workers above the engine's
	// MaxInflight+MaxQueue to force admission shedding. Default 8.
	Workers int
	// Sessions and Tenants size the workload trace (see workload.Defaults
	// for the class mix). Defaults 120 and 40.
	Sessions int
	Tenants  int
	// Rules is the fault schedule installed after the oracle pass. Read-side
	// rules only — the live publisher shares the store, and torn publishes
	// are the swap protocol's problem, not this harness's.
	Rules []faultstore.Rule
	// Opts overrides the engine options; nil uses DefaultQoSEngineOptions.
	Opts *core.Options
	// Publishes is how many live epochs the publisher folds into the hot day
	// while the replay runs. Default 150.
	Publishes int
	// PublishGap spaces the publishes so they overlap the whole replay
	// rather than finishing in its first millisecond. Default 500µs.
	PublishGap time.Duration
}

// DefaultQoSEngineOptions is DefaultEngineOptions plus the QoS layer sized
// so that a composed run actually sheds: a small inflight bound, a short
// queue, priority admission, a per-tenant rate the Zipf head exceeds, and a
// result cache long enough to serve session replays.
func DefaultQoSEngineOptions() core.Options {
	o := DefaultEngineOptions()
	o.MaxInflight = 4
	o.MaxQueue = 16
	o.QoSPriority = true
	o.TenantRate = 200
	o.TenantBurst = 50
	o.ResultCacheTTL = 5 * time.Second
	o.ResultCacheSlots = 4096
	return o
}

// ComposedReport is the outcome of a composed run. Every replayed query
// lands in exactly one of Exact, LiveOK, Shed, TypedFail, Wrong, Untyped.
type ComposedReport struct {
	Queries   int
	Exact     int   // historical answers identical to the oracle
	Replanned int   // of Exact: used degraded-mode fallback
	LiveOK    int   // live answers upholding epoch monotonicity
	Shed      int   // rejected or throttled (typed overload outcomes)
	TypedFail int   // failed with a typed fault-taxonomy error
	Wrong     int   // oracle mismatch or a backwards live total
	Untyped   int   // failed outside the typed taxonomy
	CacheHits int   // answers served whole from the result cache
	Injected  int64 // faults the store injected during the replay
	Epochs    int   // live epochs published during the replay

	// FirstViolation describes the first wrong answer, monotonicity break,
	// or untyped error; empty on a clean run.
	FirstViolation string
}

// Clean reports whether the run upheld both contracts.
func (r *ComposedReport) Clean() bool { return r.Wrong == 0 && r.Untyped == 0 }

// Completed counts queries that returned a verified answer.
func (r *ComposedReport) Completed() int { return r.Exact + r.LiveOK }

// Availability is the fraction of queries that returned a verified answer;
// shed and typed-failed queries count against it.
func (r *ComposedReport) Availability() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Completed()) / float64(r.Queries)
}

// composedOracle is the fault-free expectation for one distinct query shape.
// Historical shapes carry exact rows; live shapes (touching the hot day)
// carry only the baseline total published before the replay — their exact
// answer moves with every fold, so the oracle is a floor, not an image.
type composedOracle struct {
	rows map[string]uint64
	tot  uint64
	live bool
}

// RunComposed executes one composed chaos run in dir: build the historical
// index, publish the hot day's first epoch, record the fault-free oracle for
// every distinct query shape in the workload trace, install the fault rules,
// then replay the trace from cfg.Workers closed-loop goroutines while a
// publisher goroutine folds cfg.Publishes further epochs into the hot day.
func RunComposed(ctx context.Context, dir string, cfg ComposedConfig) (*ComposedReport, error) {
	if cfg.Days <= 0 {
		cfg.Days = 120
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 120
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 40
	}
	if cfg.Publishes <= 0 {
		cfg.Publishes = 150
	}
	if cfg.PublishGap <= 0 {
		cfg.PublishGap = 500 * time.Microsecond
	}
	ix, fs, err := Build(dir, cfg.Days, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	ix.EnableLive()

	opts := DefaultQoSEngineOptions()
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

	// The hot day extends coverage by one: its first image goes out before
	// the trace is generated, so workload windows reaching the coverage edge
	// touch a day that is being republished underneath them.
	hot := hi + 1
	hotCube := cube.New(ix.Schema())
	hotCube.Add(0, 0, 0, 0, 1)
	epoch, err := ix.PublishEpoch(map[temporal.Period]*cube.Cube{temporal.DayPeriod(hot): hotCube.Clone()})
	if err != nil {
		return nil, fmt.Errorf("harness: publish hot day: %w", err)
	}
	eng.MarkLiveUpdate(epoch, temporal.DayPeriod(hot))

	wcfg := workload.Defaults(lo, hot, Schema().Countries[:4])
	wcfg.Seed = cfg.Seed
	wcfg.Sessions = cfg.Sessions
	wcfg.Tenants = cfg.Tenants
	tr, err := workload.Generate(wcfg)
	if err != nil {
		return nil, err
	}

	// Oracle pass: one fault-free execution per distinct query shape, before
	// any rule is installed and before the publisher starts. Live shapes
	// record the epoch-1 baseline their replayed totals must never drop
	// below.
	oracles := map[string]*composedOracle{}
	for _, ev := range tr.Events {
		k := core.QueryKey(ev.Query)
		if _, ok := oracles[k]; ok {
			continue
		}
		res, err := eng.AnalyzeContext(ctx, ev.Query)
		if err != nil {
			return nil, fmt.Errorf("harness: oracle for %s: %w", k, err)
		}
		oracles[k] = &composedOracle{rows: rowMap(res.Rows), tot: res.Total, live: ev.Query.To >= hot}
	}

	injectedBefore := fs.Injected()
	for _, r := range cfg.Rules {
		fs.AddRule(r)
	}

	rep := &ComposedReport{Queries: len(tr.Events)}
	var mu sync.Mutex
	violation := func(format string, args ...any) {
		if rep.FirstViolation == "" {
			rep.FirstViolation = fmt.Sprintf(format, args...)
		}
	}

	// Publisher: folds growing images of the hot day, each published as a
	// new epoch, exactly as the live pipeline does — including the
	// MarkLiveUpdate call that re-arms the engine's freshness floor. Writes
	// do not cross the fault rules (read-side only), so a publish failure is
	// an infrastructure error, not a chaos outcome.
	var pubErr error
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
		de, dc, dr, du := ix.Schema().Dims()
		for i := 0; i < cfg.Publishes; i++ {
			if ctx.Err() != nil {
				return
			}
			hotCube.Add(rng.Intn(de), rng.Intn(dc), rng.Intn(dr), rng.Intn(du), uint64(1+rng.Intn(3)))
			ep, err := ix.PublishEpoch(map[temporal.Period]*cube.Cube{temporal.DayPeriod(hot): hotCube.Clone()})
			if err != nil {
				mu.Lock()
				if pubErr == nil {
					pubErr = fmt.Errorf("harness: live publish %d: %w", i, err)
				}
				mu.Unlock()
				return
			}
			eng.MarkLiveUpdate(ep, temporal.DayPeriod(hot))
			mu.Lock()
			rep.Epochs++
			mu.Unlock()
			time.Sleep(cfg.PublishGap)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker monotonicity ratchet: a worker's reads are
			// sequential, the directory swap is atomic, and every published
			// image is a superset of the last, so a later read of the same
			// shape may never observe a smaller total — unless a stale-epoch
			// cache entry leaks through.
			last := map[string]uint64{}
			for i := w; i < len(tr.Events); i += cfg.Workers {
				ev := tr.Events[i]
				qctx := exec.WithClass(exec.WithTenant(ctx, ev.Tenant), ev.Class)
				res, err := eng.AnalyzeContext(qctx, ev.Query)
				k := core.QueryKey(ev.Query)
				o := oracles[k]
				mu.Lock()
				if err == nil && res.Stats.ResultCacheHit {
					rep.CacheHits++
				}
				switch {
				case err == nil && o.live:
					if res.Total >= o.tot && res.Total >= last[k] {
						rep.LiveOK++
					} else {
						rep.Wrong++
						violation("worker %d event %d %s: live total went backwards: got %d, floor %d, last seen %d",
							w, i, k, res.Total, o.tot, last[k])
					}
					if res.Total > last[k] {
						last[k] = res.Total
					}
				case err == nil && res.Total == o.tot && sameRows(rowMap(res.Rows), o.rows):
					rep.Exact++
					if res.Stats.ReplannedPeriods > 0 {
						rep.Replanned++
					}
				case err == nil:
					rep.Wrong++
					violation("worker %d event %d %s: total %d, oracle %d", w, i, k, res.Total, o.tot)
				case errors.Is(err, exec.ErrRejected) || errors.Is(err, exec.ErrThrottled):
					rep.Shed++
				case typedFault(err):
					rep.TypedFail++
				default:
					rep.Untyped++
					violation("worker %d event %d %s: untyped error: %v", w, i, k, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	pubWG.Wait()
	rep.Injected = fs.Injected() - injectedBefore
	if pubErr != nil {
		return nil, pubErr
	}
	return rep, nil
}
