package cache

import (
	"rased/internal/obs"
	"rased/internal/temporal"
)

// Metrics are a cache's obs instruments: per-level hit/miss/eviction
// counters plus a residency gauge. Both the preload cache and the sharded
// cache carry one, distinguished by a policy label so a deployment can
// register either (or both, in ablation harnesses) without series collisions. The counters
// back the Stats() API, so legacy polling and /metrics always agree.
type Metrics struct {
	Hits      [temporal.NumLevels]*obs.Counter
	Misses    [temporal.NumLevels]*obs.Counter
	Evictions [temporal.NumLevels]*obs.Counter
	Entries   *obs.GaugeFunc
}

func newMetrics(policy string, lenFn func() int) *Metrics {
	m := &Metrics{}
	for i := 0; i < temporal.NumLevels; i++ {
		lvl := obs.L("level", temporal.Level(i).String())
		pol := obs.L("policy", policy)
		m.Hits[i] = obs.NewCounter("rased_cache_hits_total", "Cube fetches served from memory.", lvl, pol)
		m.Misses[i] = obs.NewCounter("rased_cache_misses_total", "Cube fetches that fell through to disk.", lvl, pol)
		m.Evictions[i] = obs.NewCounter("rased_cache_evictions_total", "Cubes dropped from the cache.", lvl, pol)
	}
	m.Entries = obs.NewGaugeFunc("rased_cache_entries", "Cubes currently resident.",
		func() float64 { return float64(lenFn()) }, obs.L("policy", policy))
	return m
}

// All returns the instruments for registry wiring.
func (m *Metrics) All() []obs.Metric {
	out := make([]obs.Metric, 0, 3*temporal.NumLevels+1)
	for i := 0; i < temporal.NumLevels; i++ {
		out = append(out, m.Hits[i], m.Misses[i], m.Evictions[i])
	}
	return append(out, m.Entries)
}

// stats sums the per-level counters into the legacy Stats form.
func (m *Metrics) stats() Stats {
	var st Stats
	for i := 0; i < temporal.NumLevels; i++ {
		st.Hits += m.Hits[i].Value()
		st.Misses += m.Misses[i].Value()
	}
	return st
}

// reset zeroes the hit/miss counters (evictions are left alone, matching the
// old ResetStats semantics which only covered hits and misses).
func (m *Metrics) reset() {
	for i := 0; i < temporal.NumLevels; i++ {
		m.Hits[i].Reset()
		m.Misses[i].Reset()
	}
}
