package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the tail candidates, lowest first.
var tailPercentiles = []float64{0.90, 0.95, 0.99, 0.999}

// supportedTail returns the highest candidate percentile that still has at
// least ten samples beyond it among n, or 0 when not even p90 has.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// beyond is how many of n sorted samples lie above the p-th percentile's rank.
func beyond(n int, p float64) int {
	return n - rank(n, p) - 1
}

// rank is the nearest-rank index of percentile p among n sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread computed
// here matches the one the driver computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// interval is a half-open stretch of time in nanoseconds since the run began.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once: the part of a span its children account for.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < lo {
			iv.start = lo
		}
		if iv.end > hi {
			iv.end = hi
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var total, reach int64 = 0, lo
	for _, iv := range clipped {
		if iv.start > reach {
			reach = iv.start
		}
		if iv.end > reach {
			total += iv.end - reach
			reach = iv.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(lo, hi int64, children []interval) int64 {
	return (hi - lo) - covered(lo, hi, children)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
