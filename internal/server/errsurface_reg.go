//go:build errsurfacereg

// Registry for the errsurface lint rule (exact-or-typed error contract on
// the public HTTP surface). Never compiled into production builds; the
// analyzer parses it from disk. Every error born in this package on a path
// reachable from a handler must be, wrap, or construct one of the names
// below — the vocabulary writeAnalysisErr dispatches statuses on.
package server

// ErrSurfaceAllowed is the registered error vocabulary of the handler
// surface.
var ErrSurfaceAllowed = []string{
	"rased/internal/core.ErrBadQuery",
	"rased/internal/core.ErrDegraded",
	"rased/internal/core.ErrUnavailable",
	"rased/internal/exec.ErrRejected",
	"rased/internal/exec.ErrThrottled",
}
