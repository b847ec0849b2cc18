//go:build hotallocreg

// This file is read by rased-lint's hotalloc rule, never compiled into the
// binary. It pins PR 4's zero-allocation contract: the functions below are
// the per-query hot paths whose allocs/op the cube benchmarks hold at zero,
// and the rule fails the lint if `go build -gcflags=-m` reports an
// allocation-class escape inside any of them. Constructors (New, CompileAgg,
// NewPagePool) and MarshalPage allocate by design and are deliberately
// absent.
package cube

var HotPathFuncs = []string{
	"(*AggPlan).resetScratch",
	"(*AggPlan).flushScratch",
	"sumRun",
	"(*Cube).AggregatePlanInto",
	"(*Cube).aggregateLists",
	"parsePage",
	"UnmarshalPageInto",
	"decodePayloadInto",
	"decodeSparseInto",
	"decodeDeltaInto",
	"(*SparseCube).AggregatePlanInto",
	"MarshalPageInto",
	"MarshalPageV2Into",
}
