//go:build hotallocreg

// This file is read by rased-lint's hotalloc rule, never compiled into the
// binary. The cache lookup paths sit on every query: a Get that allocates
// would turn the hit path into a per-request garbage source. Put paths
// allocate their LRU bookkeeping (&lruEntry, list elements) by design and
// are deliberately absent.
package cache

var HotPathFuncs = []string{
	"(*Sharded).Get",
	"(*Sharded).GetAtLeast",
	"(*Sharded).Contains",
	"(*shardGroup).shardFor",
}
