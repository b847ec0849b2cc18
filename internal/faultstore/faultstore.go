// Package faultstore wraps a pagestore.Pager with deterministic, seeded
// fault injection. It exists so the data plane's failure paths — bounded
// retries, page quarantine, degraded-mode replanning — can be provoked on
// demand from tests, the chaos harness, and the -faults flag on rased-server,
// instead of waiting for a disk to actually die.
//
// A Store evaluates a scriptable list of Rules against every read and write.
// All trigger decisions (probability draws, op counting) happen under the
// store mutex with a seeded PRNG, so a given (seed, schedule of operations)
// always injects the same faults; the injected effects themselves — errors,
// payload corruption, torn writes, latency sleeps — run outside the mutex.
package faultstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"rased/internal/obs"
	"rased/internal/pagestore"
)

// Typed injection sentinels. Transient injected errors additionally wrap
// pagestore.ErrTransient, so retry loops treat them exactly like a real
// flaky-bus EIO would be treated.
var (
	// ErrInjected is wrapped by every error the fault store fabricates, so
	// tests can tell an injected failure from a genuine one.
	ErrInjected = errors.New("injected fault")
	// ErrTornWrite reports a write that was deliberately left half-applied:
	// the page on disk holds a prefix of the intended bytes and zeros beyond,
	// the same state a crash mid-pwrite leaves behind.
	ErrTornWrite = errors.New("torn write")
)

// Op selects which operations a rule applies to.
type Op int

const (
	OpAny Op = iota
	OpRead
	OpWrite
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "any"
	}
}

// Kind is the fault a firing rule injects.
type Kind int

const (
	// KindTransient fails the operation with an error wrapping both
	// ErrInjected and pagestore.ErrTransient; a retry may succeed.
	KindTransient Kind = iota
	// KindPermanent fails the operation with an error wrapping ErrInjected
	// only; retries keep failing (while the rule keeps firing).
	KindPermanent
	// KindCorrupt lets the operation proceed, then flips bits in the payload:
	// reads return corrupted data, writes persist corrupted data silently.
	KindCorrupt
	// KindTorn applies to writes: a prefix of the page is written, the rest
	// is zeroed, and the operation returns ErrTornWrite. On reads it behaves
	// like KindCorrupt (the torn state is what a reader observes).
	KindTorn
	// KindLatency injects an extra sleep (Rule.Latency) and then lets the
	// operation proceed normally.
	KindLatency
)

func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindPermanent:
		return "permanent"
	case KindCorrupt:
		return "corrupt"
	case KindTorn:
		return "torn"
	case KindLatency:
		return "latency"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rule describes one fault-injection trigger. A rule fires on an operation
// when every constraint matches: the op direction, the page id (Page < 0
// matches any page), the op-count window (AfterN skips the first n matching
// ops, EveryN fires on every nth match thereafter, Count caps total fires),
// and finally the probability draw (Prob <= 0 or >= 1 always passes).
type Rule struct {
	Op      Op
	Kind    Kind
	Page    int           // page id to match; negative matches any page
	Prob    float64       // firing probability once the counters match
	EveryN  int           // fire on every Nth matching op (0 = every op)
	AfterN  int           // skip the first N matching ops
	Count   int           // maximum number of fires (0 = unlimited)
	Latency time.Duration // sleep for KindLatency

	matched int // ops that matched op+page (guarded by Store.mu)
	fired   int // times this rule fired (guarded by Store.mu)
}

// Metrics are the fault store's obs instruments: one injection counter per
// fault kind, so chaos runs can assert the schedule actually fired.
type Metrics struct {
	Transient *obs.Counter
	Permanent *obs.Counter
	Corrupt   *obs.Counter
	Torn      *obs.Counter
	Latency   *obs.Counter
}

// All returns the instruments for registry wiring.
func (m *Metrics) All() []obs.Metric {
	return []obs.Metric{m.Transient, m.Permanent, m.Corrupt, m.Torn, m.Latency}
}

func (m *Metrics) counter(k Kind) *obs.Counter {
	switch k {
	case KindTransient:
		return m.Transient
	case KindPermanent:
		return m.Permanent
	case KindCorrupt:
		return m.Corrupt
	case KindTorn:
		return m.Torn
	default:
		return m.Latency
	}
}

// Store wraps a Pager and injects faults per its rule list. It implements
// pagestore.Pager, so it slots underneath tindex via WithStoreWrapper.
type Store struct {
	under pagestore.Pager

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*Rule

	met *Metrics
}

var _ pagestore.Pager = (*Store)(nil)

// New wraps under with a fault store seeded for deterministic injection.
func New(under pagestore.Pager, seed int64) *Store {
	s := &Store{under: under, rng: rand.New(rand.NewSource(seed))}
	s.met = &Metrics{
		Transient: obs.NewCounter("rased_faults_injected_total", "Injected faults by kind.", obs.L("kind", "transient")),
		Permanent: obs.NewCounter("rased_faults_injected_total", "Injected faults by kind.", obs.L("kind", "permanent")),
		Corrupt:   obs.NewCounter("rased_faults_injected_total", "Injected faults by kind.", obs.L("kind", "corrupt")),
		Torn:      obs.NewCounter("rased_faults_injected_total", "Injected faults by kind.", obs.L("kind", "torn")),
		Latency:   obs.NewCounter("rased_faults_injected_total", "Injected faults by kind.", obs.L("kind", "latency")),
	}
	return s
}

// NewFromSpec wraps under with the rules parsed from spec (see ParseSpec).
func NewFromSpec(under pagestore.Pager, spec string, seed int64) (*Store, error) {
	rules, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	s := New(under, seed)
	for _, r := range rules {
		s.AddRule(r)
	}
	return s, nil
}

// FaultMetrics returns the injection counters for registry wiring. (The
// Metrics method is taken by the Pager surface, which forwards the underlying
// store's instruments.)
func (s *Store) FaultMetrics() *Metrics { return s.met }

// Under returns the wrapped Pager.
func (s *Store) Under() pagestore.Pager { return s.under }

// AddRule appends a rule to the schedule.
func (s *Store) AddRule(r Rule) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, &r)
}

// ClearRules removes every rule; subsequent operations pass through clean.
func (s *Store) ClearRules() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = nil
}

// Injected returns the total number of faults injected so far.
func (s *Store) Injected() int64 {
	var n int64
	for _, c := range s.met.All() {
		n += c.(*obs.Counter).Value()
	}
	return n
}

// action is the decided effect for one operation, resolved under the mutex
// and applied outside it.
type action struct {
	kind    Kind
	latency time.Duration
	corrupt int64 // deterministic corruption salt drawn under the mutex
}

// decide evaluates the rule list for one (op, page) and returns the actions
// of every rule that fired. All randomness is consumed here, under the mutex.
func (s *Store) decide(op Op, page int) []action {
	s.mu.Lock()
	defer s.mu.Unlock()
	var acts []action
	for _, r := range s.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Page >= 0 && r.Page != page {
			continue
		}
		r.matched++
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.matched <= r.AfterN {
			continue
		}
		if r.EveryN > 1 && (r.matched-r.AfterN)%r.EveryN != 0 {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && s.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		acts = append(acts, action{kind: r.Kind, latency: r.Latency, corrupt: s.rng.Int63()})
	}
	return acts
}

// injectedErr fabricates the typed error for a failing fault kind.
func injectedErr(k Kind, op Op, page int) error {
	switch k {
	case KindTransient:
		return fmt.Errorf("faultstore: %s page %d: %w", op, page, errors.Join(ErrInjected, pagestore.ErrTransient))
	case KindTorn:
		return fmt.Errorf("faultstore: %s page %d: %w", op, page, errors.Join(ErrInjected, ErrTornWrite))
	default:
		return fmt.Errorf("faultstore: %s page %d: permanent: %w", op, page, ErrInjected)
	}
}

// corruptBuf deterministically flips bits in buf using the salt drawn under
// the mutex. The flipped byte sits just past the 40-byte cube header — still
// inside the checksummed payload even for mostly-empty cubes (a flip in the
// page's zero padding would not be a detectable fault at all), so the CRC
// check, not just header validation, is what catches it.
func corruptBuf(buf []byte, salt int64) {
	if len(buf) == 0 {
		return
	}
	off := 0
	if len(buf) > 128 {
		off = 48 + int(uint64(salt)%80)
	} else {
		off = int(uint64(salt) % uint64(len(buf)))
	}
	buf[off] ^= byte(salt>>8) | 1
}

// sleepCtx sleeps d, aborting early when ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// applyRead applies the decided actions around a read of pages [id,id+n)
// into buf. Latency sleeps happen before the read (a slow disk), corruption
// after it (bit rot on the wire), and failures suppress the read entirely.
func (s *Store) applyRead(ctx context.Context, acts []action, id, n int, buf []byte, read func() error) error {
	pageSize := s.under.PageSize()
	for _, a := range acts {
		switch a.kind {
		case KindLatency:
			s.met.Latency.Inc()
			if err := sleepCtx(ctx, a.latency); err != nil {
				return err
			}
		case KindTransient, KindPermanent:
			s.met.counter(a.kind).Inc()
			return injectedErr(a.kind, OpRead, id)
		}
	}
	if err := read(); err != nil {
		return err
	}
	for _, a := range acts {
		if a.kind == KindCorrupt || a.kind == KindTorn {
			s.met.counter(a.kind).Inc()
			// Pick one page of the run to corrupt so a coalesced read is
			// damaged the same way the equivalent single-page read would be.
			p := int(uint64(a.corrupt) % uint64(n))
			corruptBuf(buf[p*pageSize:(p+1)*pageSize], a.corrupt)
		}
	}
	return nil
}

// ReadPage implements pagestore.Pager.
func (s *Store) ReadPage(id int, buf []byte) error {
	return s.ReadPageCtx(context.Background(), id, buf)
}

// ReadPageCtx implements pagestore.Pager.
func (s *Store) ReadPageCtx(ctx context.Context, id int, buf []byte) error {
	acts := s.decide(OpRead, id)
	return s.applyRead(ctx, acts, id, 1, buf, func() error {
		return s.under.ReadPageCtx(ctx, id, buf)
	})
}

// ReadPagesCtx implements pagestore.Pager. Rules are evaluated per page of
// the run, so per-page triggers fire identically whether the page is read
// alone or as part of a coalesced run; any failing action fails the whole
// run (the caller falls back to per-page reads and retries there).
func (s *Store) ReadPagesCtx(ctx context.Context, id, n int, buf []byte) error {
	var acts []action
	for p := id; p < id+n; p++ {
		acts = append(acts, s.decide(OpRead, p)...)
	}
	return s.applyRead(ctx, acts, id, n, buf, func() error {
		return s.under.ReadPagesCtx(ctx, id, n, buf)
	})
}

// applyWrite applies the decided actions around a write of buf to page id
// (id < 0 means append; performWrite receives the possibly-mangled bytes).
func (s *Store) applyWrite(acts []action, id int, buf []byte, write func([]byte) error) error {
	for _, a := range acts {
		switch a.kind {
		case KindLatency:
			s.met.Latency.Inc()
			time.Sleep(a.latency)
		case KindTransient, KindPermanent:
			s.met.counter(a.kind).Inc()
			return injectedErr(a.kind, OpWrite, id)
		}
	}
	for _, a := range acts {
		switch a.kind {
		case KindCorrupt:
			s.met.Corrupt.Inc()
			mangled := append([]byte(nil), buf...)
			corruptBuf(mangled, a.corrupt)
			return write(mangled) // silent: the write "succeeds"
		case KindTorn:
			s.met.Torn.Inc()
			torn := append([]byte(nil), buf...)
			cut := len(torn) / 2
			if cut < 48 && len(torn) > 48 {
				cut = 48 // keep the header: a torn payload, not a missing page
			}
			for i := cut; i < len(torn); i++ {
				torn[i] = 0
			}
			if err := write(torn); err != nil {
				return err
			}
			return injectedErr(KindTorn, OpWrite, id)
		}
	}
	return write(buf)
}

// WritePage implements pagestore.Pager.
func (s *Store) WritePage(id int, buf []byte) error {
	acts := s.decide(OpWrite, id)
	return s.applyWrite(acts, id, buf, func(b []byte) error {
		return s.under.WritePage(id, b)
	})
}

// Append implements pagestore.Pager. A torn append still allocates the page
// (the same hole a crashed extending write leaves), but reports failure, so
// the caller's directory never references it.
func (s *Store) Append(buf []byte) (int, error) {
	// Appends land on page NumPages(); evaluate page-targeted rules there.
	acts := s.decide(OpWrite, s.under.NumPages())
	var got int
	err := s.applyWrite(acts, -1, buf, func(b []byte) error {
		var werr error
		got, werr = s.under.Append(b)
		return werr
	})
	return got, err
}

// WriteExtent implements pagestore.Pager. Rules target the extent's first
// slot, so a page-targeted schedule hits an extent landing on that slot the
// same way it would hit a single-page write there.
func (s *Store) WriteExtent(id int, buf []byte) error {
	acts := s.decide(OpWrite, id)
	return s.applyWrite(acts, id, buf, func(b []byte) error {
		return s.under.WriteExtent(id, b)
	})
}

// AppendExtent implements pagestore.Pager. Like Append, a torn extent still
// occupies its slots (the hole a crashed extending write leaves) but reports
// failure, so the caller's directory never references it.
func (s *Store) AppendExtent(buf []byte) (int, int, error) {
	acts := s.decide(OpWrite, s.under.NumPages())
	var gotID, gotSlots int
	err := s.applyWrite(acts, -1, buf, func(b []byte) error {
		var werr error
		gotID, gotSlots, werr = s.under.AppendExtent(b)
		return werr
	})
	return gotID, gotSlots, err
}

// The remaining Pager methods pass straight through.

func (s *Store) PageSize() int                  { return s.under.PageSize() }
func (s *Store) NumPages() int                  { return s.under.NumPages() }
func (s *Store) SizeBytes() int64               { return s.under.SizeBytes() }
func (s *Store) Stats() pagestore.Stats         { return s.under.Stats() }
func (s *Store) ResetStats()                    { s.under.ResetStats() }
func (s *Store) Sync() error                    { return s.under.Sync() }
func (s *Store) Close() error                   { return s.under.Close() }
func (s *Store) Path() string                   { return s.under.Path() }
func (s *Store) Metrics() *pagestore.Metrics    { return s.under.Metrics() }
func (s *Store) SetReadLatency(d time.Duration) { s.under.SetReadLatency(d) }
func (s *Store) ReadLatency() time.Duration     { return s.under.ReadLatency() }

// ParseSpec parses a fault schedule from its flag syntax: rules separated by
// ';', each rule a comma-separated list of key=value fields:
//
//	op=read|write|any        operation to match (default any)
//	kind=transient|permanent|corrupt|torn|latency   (required)
//	page=N                   page id to match (default any)
//	prob=F                   firing probability in [0,1] (default 1)
//	every=N                  fire on every Nth matching op
//	after=N                  skip the first N matching ops
//	count=N                  cap the number of fires
//	latency=D                sleep duration for kind=latency (Go syntax)
//
// Example: "op=read,kind=transient,prob=0.01;op=write,kind=torn,after=100,count=1".
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		r := Rule{Page: -1, Prob: 1}
		haveKind := false
		for _, f := range strings.Split(rs, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("faultstore: spec field %q is not key=value", f)
			}
			var err error
			switch k {
			case "op":
				switch v {
				case "read":
					r.Op = OpRead
				case "write":
					r.Op = OpWrite
				case "any":
					r.Op = OpAny
				default:
					err = fmt.Errorf("unknown op %q", v)
				}
			case "kind":
				haveKind = true
				switch v {
				case "transient":
					r.Kind = KindTransient
				case "permanent":
					r.Kind = KindPermanent
				case "corrupt":
					r.Kind = KindCorrupt
				case "torn":
					r.Kind = KindTorn
				case "latency":
					r.Kind = KindLatency
				default:
					err = fmt.Errorf("unknown kind %q", v)
				}
			case "page":
				r.Page, err = strconv.Atoi(v)
			case "prob":
				r.Prob, err = strconv.ParseFloat(v, 64)
				if err == nil && (r.Prob < 0 || r.Prob > 1) {
					err = fmt.Errorf("prob %v outside [0,1]", r.Prob)
				}
			case "every":
				r.EveryN, err = strconv.Atoi(v)
			case "after":
				r.AfterN, err = strconv.Atoi(v)
			case "count":
				r.Count, err = strconv.Atoi(v)
			case "latency":
				r.Latency, err = time.ParseDuration(v)
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("faultstore: spec rule %q: %w", rs, err)
			}
		}
		if !haveKind {
			return nil, fmt.Errorf("faultstore: spec rule %q has no kind", rs)
		}
		if r.Kind == KindLatency && r.Latency <= 0 {
			return nil, fmt.Errorf("faultstore: spec rule %q: kind=latency needs latency=<duration>", rs)
		}
		rules = append(rules, r)
	}
	return rules, nil
}
