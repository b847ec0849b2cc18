package core

import (
	"sort"
	"strconv"
	"strings"

	"rased/internal/exec"
)

// QoS wiring: the per-tenant rate limit and the epoch-stamped result cache
// sit in front of admission control, in that order. The limiter sheds callers
// who exceed THEIR budget (429) before they can consume shared capacity; the
// result cache then answers identical-query repeats without an admission slot
// — a dashboard tile refreshed by many tenants must not occupy the execution
// queue fifty times. Only fully-successful, untraced, unrestricted executions
// are cached, and every entry carries the index epoch loaded before execution
// as a freshness lower bound (the same convention as fetchRun), so a live
// fold invalidates the whole cache by advancing the epoch — see
// exec.ResultCache for the monotone-read argument.

// QueryKey returns the canonical identity of q's answer: two queries with
// equal keys return identical results when executed at the same epoch. Filter
// slices are order-insensitive (compared as sorted copies) but nil and empty
// stay distinct — nil means unfiltered, empty means "match nothing". Trace is
// excluded: trace queries bypass the result cache entirely (their value is
// the fresh execution record).
func QueryKey(q Query) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString(strconv.Itoa(int(q.From)))
	b.WriteByte('-')
	b.WriteString(strconv.Itoa(int(q.To)))
	writeFilterDim(&b, 'e', q.ElementTypes)
	writeFilterDim(&b, 'c', q.Countries)
	writeFilterDim(&b, 'r', q.RoadTypes)
	writeFilterDim(&b, 'u', q.UpdateTypes)
	b.WriteString("|g:")
	for _, on := range []bool{q.GroupBy.ElementType, q.GroupBy.Country, q.GroupBy.RoadType, q.GroupBy.UpdateType} {
		if on {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteString(q.GroupBy.Date.String())
	if q.Percentage {
		b.WriteString("|pct")
	}
	return b.String()
}

// writeFilterDim appends one filter dimension to the key: absent for nil,
// the sorted values otherwise (names may repeat in the query; duplicates are
// kept — they do not change the answer but deduplicating here buys nothing).
func writeFilterDim(b *strings.Builder, tag byte, vals []string) {
	if vals == nil {
		return
	}
	b.WriteByte('|')
	b.WriteByte(tag)
	b.WriteByte(':')
	sorted := append([]string(nil), vals...)
	sort.Strings(sorted)
	for i, v := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v)
	}
}

// resultCacheKey decides cacheability and builds the key: only whole-query
// (unrestricted), untraced executions with the cache enabled participate.
// Partition-restricted executions are shard-internal partial answers — their
// identity depends on the restriction, and the routing tier caches the merged
// whole answer anyway.
func (e *Engine) resultCacheKey(q Query, restrict *restriction) (string, bool) {
	if e.rcache == nil || restrict != nil || q.Trace {
		return "", false
	}
	return QueryKey(q), true
}

// cachedResult returns a caller-owned copy of a cached result. Rows are
// copied because the serving tier sorts and truncates them in place; Row
// itself is a value type, so a slice copy severs all sharing.
func cachedResult(v *Result) *Result {
	cp := *v
	cp.Rows = append([]Row(nil), v.Rows...)
	cp.Stats.ResultCacheHit = true
	return &cp
}

// storeResult puts a defensive copy of res into the result cache, stamped
// with the pre-execution epoch.
func (e *Engine) storeResult(key string, epoch uint64, res *Result) {
	cp := *res
	cp.Rows = append([]Row(nil), res.Rows...)
	cp.Trace = nil
	e.rcache.Put(key, epoch, &cp)
}

// ResultCacheMetrics returns the result cache's instruments (nil when the
// cache is disabled).
func (e *Engine) ResultCacheMetrics() *exec.ResultCacheMetrics {
	return e.rcache.Metrics()
}

// TenantLimiter returns the engine's per-tenant rate limiter (nil when
// disabled); tests use it to drive the clock.
func (e *Engine) TenantLimiter() *exec.TenantLimiter {
	return e.limiter
}
