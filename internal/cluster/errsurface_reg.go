//go:build errsurfacereg

// Registry for the errsurface lint rule (exact-or-typed error contract on
// the cluster wire). Never compiled into production builds; the analyzer
// parses it from disk. Every error born in this package on a path reachable
// from a shard handler or the router's Backend surface must be, wrap, or
// construct one of the names below — the vocabulary CodeOf/Unwrap round-trip
// across the wire.
package cluster

// ErrSurfaceAllowed is the registered error vocabulary of the cluster wire.
var ErrSurfaceAllowed = []string{
	"rased/internal/core.ErrBadQuery",
	"rased/internal/core.ErrDegraded",
	"rased/internal/core.ErrUnavailable",
	"rased/internal/exec.ErrRejected",
	"rased/internal/exec.RetryAfterError",
	"rased/internal/cluster.ErrNotOwner",
	"rased/internal/cluster.ErrMapVersion",
	"rased/internal/cluster.RemoteError",
}
