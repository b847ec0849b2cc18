package benchx

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rased/internal/cache"
	"rased/internal/core"
)

// AllocationPoint is one measurement of the cache-allocation ablation.
type AllocationPoint struct {
	Name       string
	Allocation cache.Allocation
	SpanMonths int
	AvgLatency time.Duration
	AvgDisk    float64
}

// NamedAllocation pairs an allocation with a display name.
type NamedAllocation struct {
	Name  string
	Alloc cache.Allocation
}

// StandardAllocations are the ablation settings for the (α, β, γ, θ)
// trade-off of Section VII-A: all-daily favors short recent windows,
// coarse-heavy favors long windows, and the paper's deployed default
// balances them.
func StandardAllocations() []NamedAllocation {
	return []NamedAllocation{
		{"all-daily (α=1)", cache.Allocation{Alpha: 1}},
		{"paper default", cache.DefaultAllocation},
		{"coarse-heavy", cache.Allocation{Alpha: 0.1, Beta: 0.2, Gamma: 0.4, Theta: 0.3}},
	}
}

// AblationAllocation measures the cache allocation trade-off: a fixed slot
// budget split differently across levels, under short and long query spans.
// The paper's rationale — "higher α would cache more daily details but less
// covered period, while higher γ and θ would favor longer period queries" —
// should appear as a crossover between the all-daily and coarse-heavy rows.
func AblationAllocation(ws *Workspace, allocs []NamedAllocation, slots int,
	spanMonths []int, queries int, seed int64) ([]AllocationPoint, error) {
	if err := checkQueries(queries); err != nil {
		return nil, err
	}
	var out []AllocationPoint
	for _, na := range allocs {
		eng, err := ws.newEngine(core.Options{
			CacheSlots:        slots,
			Allocation:        na.Alloc,
			LevelOptimization: true,
		})
		if err != nil {
			return nil, err
		}
		for _, span := range spanMonths {
			rng := rand.New(rand.NewSource(seed + int64(span)))
			var disk int
			avg, err := measure(queries, func() error {
				lo, hi := ws.recentWindow(rng, span*30)
				res, err := eng.Analyze(ws.singleCellQuery(rng, lo, hi))
				if err != nil {
					return err
				}
				disk += res.Stats.DiskReads
				return nil
			})
			if err != nil {
				return nil, err
			}
			out = append(out, AllocationPoint{
				Name:       na.Name,
				Allocation: na.Alloc,
				SpanMonths: span,
				AvgLatency: avg,
				AvgDisk:    float64(disk) / float64(queries),
			})
		}
	}
	return out, nil
}

// EvictionPoint is one measurement of the cache-policy ablation.
type EvictionPoint struct {
	Policy     string // "preload" | "demand" | "none"
	SpanMonths int
	AvgDisk    float64
}

// AblationEviction compares the paper's statically preloaded recency cache
// against the demand-filled sharded cache of the same capacity (and against
// no cache) on the recency-skewed single-cell workload, one engine per
// policy. Both caches drive the level optimizer's cost model through their
// residency sets; disk reads per query are the outcome. The preload policy
// pays nothing to learn the hot set; the demand cache discovers it from the
// stream and can additionally retain old-but-rehit cubes the static policy
// never holds.
func AblationEviction(ws *Workspace, slots int, spanMonths []int, queries int, seed int64) ([]EvictionPoint, error) {
	if err := checkQueries(queries); err != nil {
		return nil, err
	}
	policies := []struct {
		name string
		opts core.Options
	}{
		{"preload", core.Options{CacheSlots: slots, CachePolicy: "preload", LevelOptimization: true}},
		{"demand", core.Options{CacheSlots: slots, CachePolicy: "sharded", LevelOptimization: true}},
		{"none", core.Options{CacheSlots: 0, LevelOptimization: true}},
	}
	var out []EvictionPoint
	for _, pol := range policies {
		eng, err := ws.newEngine(pol.opts)
		if err != nil {
			return nil, err
		}
		for _, span := range spanMonths {
			rng := rand.New(rand.NewSource(seed + int64(span)))
			disk := 0
			for q := 0; q < queries; q++ {
				lo, hi := ws.recentWindow(rng, span*30)
				res, err := eng.Analyze(ws.singleCellQuery(rng, lo, hi))
				if err != nil {
					return nil, err
				}
				disk += res.Stats.DiskReads
			}
			out = append(out, EvictionPoint{
				Policy:     pol.name,
				SpanMonths: span,
				AvgDisk:    float64(disk) / float64(queries),
			})
		}
	}
	return out, nil
}

// PrintAblationEviction renders the eviction-policy ablation.
func PrintAblationEviction(w io.Writer, points []EvictionPoint) {
	fmt.Fprintln(w, "Ablation: cache policy (preload vs demand vs none) — avg disk reads per query")
	var spans []int
	seen := map[int]bool{}
	for _, p := range points {
		if !seen[p.SpanMonths] {
			seen[p.SpanMonths] = true
			spans = append(spans, p.SpanMonths)
		}
	}
	fmt.Fprintf(w, "%-12s", "policy")
	for _, s := range spans {
		fmt.Fprintf(w, "%12s", fmt.Sprintf("%d mo", s))
	}
	fmt.Fprintln(w)
	for _, name := range []string{"preload", "demand", "none"} {
		fmt.Fprintf(w, "%-12s", name)
		for _, s := range spans {
			for _, p := range points {
				if p.Policy == name && p.SpanMonths == s {
					fmt.Fprintf(w, "%12.2f", p.AvgDisk)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// PrintAblationAllocation renders the allocation ablation.
func PrintAblationAllocation(w io.Writer, points []AllocationPoint) {
	fmt.Fprintln(w, "Ablation: cache allocation (α, β, γ, θ) — avg disk reads per query")
	fmt.Fprintf(w, "%-20s", "allocation")
	var spans []int
	seen := map[int]bool{}
	for _, p := range points {
		if !seen[p.SpanMonths] {
			seen[p.SpanMonths] = true
			spans = append(spans, p.SpanMonths)
		}
	}
	for _, s := range spans {
		fmt.Fprintf(w, "%12s", fmt.Sprintf("%d mo", s))
	}
	fmt.Fprintln(w)
	var names []string
	seenN := map[string]bool{}
	for _, p := range points {
		if !seenN[p.Name] {
			seenN[p.Name] = true
			names = append(names, p.Name)
		}
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-20s", n)
		for _, s := range spans {
			for _, p := range points {
				if p.Name == n && p.SpanMonths == s {
					fmt.Fprintf(w, "%12.2f", p.AvgDisk)
				}
			}
		}
		fmt.Fprintln(w)
	}
}
