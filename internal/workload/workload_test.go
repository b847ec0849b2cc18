package workload

import (
	"math"
	"strings"
	"testing"
	"time"

	"rased/internal/exec"
	"rased/internal/temporal"
)

func testConfig(seed int64) Config {
	lo := temporal.NewDay(2021, time.January, 1)
	hi := temporal.NewDay(2021, time.June, 30)
	cfg := Defaults(lo, hi, []string{"Germany", "France", "United States"})
	cfg.Seed = seed
	return cfg
}

// TestGoldenDeterminism pins the generator: the same seed must produce a
// byte-identical trace, run to run — the bench/ workloads replay it.
func TestGoldenDeterminism(t *testing.T) {
	a, err := Generate(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.String(), b.String()
	if sa != sb {
		t.Fatal("same seed produced different traces")
	}
	if len(a.Events) == 0 {
		t.Fatal("empty trace")
	}
	// Different seeds must actually differ (the stream is live, not inert).
	c, err := Generate(testConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if c.String() == sa {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTraceShape checks structural invariants: sorted arrivals, all three
// classes present, windows inside coverage, sessions internally ordered.
func TestTraceShape(t *testing.T) {
	cfg := testConfig(7)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seen [exec.NumClasses]int
	lastAt := time.Duration(-1)
	for _, e := range tr.Events {
		if e.At < lastAt {
			t.Fatal("events not sorted by arrival")
		}
		lastAt = e.At
		seen[e.Class]++
		if e.Query.From < cfg.CovLo || e.Query.To > cfg.CovHi || e.Query.To < e.Query.From {
			t.Fatalf("query window [%s, %s] escapes coverage [%s, %s]",
				e.Query.From, e.Query.To, cfg.CovLo, cfg.CovHi)
		}
		if !strings.HasPrefix(e.Tenant, "t") {
			t.Fatalf("tenant %q not in canonical form", e.Tenant)
		}
	}
	for cl := exec.ClassInteractive; cl < exec.NumClasses; cl++ {
		if seen[cl] == 0 {
			t.Fatalf("trace contains no %v events", cl)
		}
	}
	if seen[exec.ClassInteractive] <= seen[exec.ClassBulk] {
		t.Fatalf("interactive (%d) should dominate bulk (%d)",
			seen[exec.ClassInteractive], seen[exec.ClassBulk])
	}
}

// TestZipfPopulation checks the tenant popularity distribution is Zipf-like
// within tolerance: log(count) vs log(rank) is near-linear with a negative
// slope, and the head dominates the tail.
func TestZipfPopulation(t *testing.T) {
	cfg := testConfig(11)
	cfg.Sessions = 2000 // enough mass for a stable distribution
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.TenantCounts()
	if len(counts) < 5 {
		t.Fatalf("only %d tenants active; want a population", len(counts))
	}
	// Head dominance: the most popular tenant must hold a large multiple of
	// the median tenant's traffic.
	median := counts[len(counts)/2].Count
	if counts[0].Count < 5*median {
		t.Fatalf("head tenant %d vs median %d: distribution is too flat for Zipf",
			counts[0].Count, median)
	}
	// Rank-frequency slope via least squares over log-log points. A Zipf
	// population with s=1.4 should fit a clearly negative slope; tolerate a
	// broad band since the session layer adds noise.
	var sx, sy, sxx, sxy float64
	n := float64(len(counts))
	for i, c := range counts {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(c.Count))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	if slope > -0.5 || slope < -3.0 {
		t.Fatalf("log-log rank-frequency slope = %.2f, want in [-3.0, -0.5]", slope)
	}
}

// TestRepeatShare checks the trace carries enough identical-query repeats to
// make a result cache worthwhile: the session replays and API polling must
// put the ceiling well above the 30% hit-rate gate.
func TestRepeatShare(t *testing.T) {
	tr, err := Generate(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if share := tr.RepeatShare(); share < 0.4 {
		t.Fatalf("repeat share = %.2f, want >= 0.40 (the cache-hit ceiling)", share)
	}
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(1)
	for name, mut := range map[string]func(*Config){
		"no tenants":      func(c *Config) { c.Tenants = 0 },
		"no sessions":     func(c *Config) { c.Sessions = 0 },
		"inverted window": func(c *Config) { c.CovLo, c.CovHi = c.CovHi+1, c.CovLo },
		"bad zipf":        func(c *Config) { c.ZipfS = 0.9 },
		"bad shares":      func(c *Config) { c.InteractiveShare = 0.9; c.APIShare = 0.5 },
	} {
		cfg := base
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate accepted invalid config", name)
		}
	}
}
