// Package hotallocfix seeds the hotalloc rule's cases: a //rased:hotpath
// function that allocates per call (flagged at the compiler's escape
// diagnostic), one that is genuinely allocation-free, one whose only
// diagnostics are fmt interface boxing on a cold error path (excluded by
// design), and an unmarked allocating function (not the rule's business).
// The package must compile standalone: the rule shells out to
// `go build -gcflags=-m` in this directory.
package hotallocfix

import "fmt"

// sumInto is the honest hot path: it writes into caller-owned storage and
// allocates nothing.
//
//rased:hotpath
func sumInto(dst *uint64, cells []uint64) {
	var s uint64
	for _, c := range cells {
		s += c
	}
	*dst = s
}

// leakyTotals is marked but allocates its result slice on every call.
//
//rased:hotpath
func leakyTotals(cells []uint64, width int) []uint64 {
	out := make([]uint64, width) // want "leakyTotals is a //rased:hotpath zero-alloc function but the compiler reports"
	for i, c := range cells {
		out[i%width] += c
	}
	return out
}

// checkWidth is marked; its only escape diagnostics are fmt boxing the
// operands of the cold error path, which the rule excludes.
//
//rased:hotpath
func checkWidth(width, have int) error {
	if width != have {
		return fmt.Errorf("hotallocfix: width %d, have %d", width, have)
	}
	return nil
}

// scratchCopy allocates per call but is not marked: allocation budgets off
// the hot path are the benchmarks' business, not this rule's.
func scratchCopy(cells []uint64) []uint64 {
	out := make([]uint64, len(cells))
	copy(out, cells)
	return out
}
