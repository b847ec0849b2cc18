package harness

// The chaos suite: randomized fault schedules against mixed concurrent
// workloads, asserting the degraded-mode contract (exact answer or typed
// failure, never a wrong answer). CI runs this with -race and
// RASED_CHAOS_QUERIES=10000 via `make chaos`; plain `go test` keeps the
// query count modest.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"rased/internal/faultstore"
)

// chaosQueries reads the run size from RASED_CHAOS_QUERIES (default def).
func chaosQueries(t *testing.T, def int) int {
	t.Helper()
	s := os.Getenv("RASED_CHAOS_QUERIES")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("RASED_CHAOS_QUERIES=%q is not a positive integer", s)
	}
	return n
}

func runChaos(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("contract violated: %d wrong answers, %d untyped errors; first: %s",
			rep.Wrong, rep.Untyped, rep.FirstViolation)
	}
	if rep.Exact+rep.TypedFail != rep.Queries {
		t.Fatalf("report does not add up: %+v", rep)
	}
	t.Logf("chaos: %d queries, %d exact (%d via replan), %d typed failures, %d faults injected",
		rep.Queries, rep.Exact, rep.Replanned, rep.TypedFail, rep.Injected)
	return rep
}

func TestChaosFaultFree(t *testing.T) {
	rep := runChaos(t, Config{Seed: 1, Queries: chaosQueries(t, 100), Days: 90})
	if rep.Exact != rep.Queries {
		t.Fatalf("fault-free run must answer everything exactly: %+v", rep)
	}
	if rep.Injected != 0 {
		t.Fatalf("fault-free run injected %d faults", rep.Injected)
	}
}

// TestChaosOnePercent is the headline acceptance run: a 1% mixed fault rate
// (transient + read corruption) under concurrent load, zero wrong answers.
// The 0.1% row is the rate proportionate fault handling is judged at; its
// availability is logged, not gated.
func TestChaosOnePercent(t *testing.T) {
	for _, rate := range []float64{0.001, 0.01} {
		t.Run(fmt.Sprintf("rate-%g", rate), func(t *testing.T) {
			rep := runChaos(t, Config{
				Seed:    2,
				Queries: chaosQueries(t, 300),
				Rules:   RateRules(rate),
			})
			if rep.Injected == 0 {
				t.Fatalf("%g schedule injected nothing; the run proved nothing", rate)
			}
			if rep.Exact == 0 {
				t.Fatalf("no query survived a %g fault rate; availability collapsed", rate)
			}
			t.Logf("availability at rate %g: %.4f", rate, float64(rep.Exact)/float64(rep.Queries))
		})
	}
}

// TestChaosHeavyCorruption pushes the corrupt-read rate to 5%: quarantine and
// fallback churn constantly, scrubs race the queries, and the contract must
// still hold.
func TestChaosHeavyCorruption(t *testing.T) {
	rep := runChaos(t, Config{
		Seed:    3,
		Queries: chaosQueries(t, 200),
		Rules: []faultstore.Rule{
			{Op: faultstore.OpRead, Kind: faultstore.KindCorrupt, Page: -1, Prob: 0.05},
		},
		ScrubEveryN: 20,
	})
	if rep.Injected == 0 {
		t.Fatal("5% corruption schedule injected nothing")
	}
}

// TestChaosTransientOnly: with retries on, a purely transient fault schedule
// should be absorbed almost entirely — and MUST stay typed when it is not.
func TestChaosTransientOnly(t *testing.T) {
	rep := runChaos(t, Config{
		Seed:    4,
		Queries: chaosQueries(t, 200),
		Rules: []faultstore.Rule{
			{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: -1, Prob: 0.02},
		},
	})
	if rep.Injected == 0 {
		t.Fatal("transient schedule injected nothing")
	}
	if rep.Exact < rep.Queries*8/10 {
		t.Fatalf("retries absorbed too little: only %d/%d exact", rep.Exact, rep.Queries)
	}
}

// TestChaosFallbackOff re-runs corrupting schedules — a random rate and a
// dead page under every monthly rollup — with degraded fallback disabled:
// availability drops (that is the point of the feature), but failures must
// still be typed and answers exact.
func TestChaosFallbackOff(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.DegradedFallback = false
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"rate-0.02", Config{Rules: RateRules(0.02)}},
		{"dead-rollups", Config{RuleFunc: DeadRollupRules}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 5
			cfg.Queries = chaosQueries(t, 200)
			cfg.Opts = &opts
			rep := runChaos(t, cfg)
			if rep.Injected == 0 {
				t.Fatal("schedule injected nothing")
			}
			if rep.Replanned != 0 {
				t.Fatalf("fallback disabled but %d queries replanned", rep.Replanned)
			}
		})
	}
}

// TestChaosDeadRollups is the scenario degraded-mode replanning exists for:
// every monthly rollup page persistently corrupt (a dead sector under a
// rollup). With fallback on, NO query may fail — the first hit per month
// reconstructs from constituents, the quarantine then routes plans around
// the page — so availability stays at 100% with a dead page under every
// month of the coverage.
func TestChaosDeadRollups(t *testing.T) {
	rep := runChaos(t, Config{
		Seed:     6,
		Queries:  chaosQueries(t, 200),
		RuleFunc: DeadRollupRules,
	})
	if rep.Injected == 0 {
		t.Fatal("dead-rollup schedule injected nothing")
	}
	if rep.Exact != rep.Queries {
		t.Fatalf("dead rollups with fallback on must stay fully available: %d/%d exact (%d typed failures)",
			rep.Exact, rep.Queries, rep.TypedFail)
	}
	if rep.Replanned == 0 {
		t.Fatal("no query replanned; the dead pages were never hit")
	}
}
