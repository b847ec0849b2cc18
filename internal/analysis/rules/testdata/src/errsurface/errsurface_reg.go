//go:build errsurfacereg

package errsurfacefix

// ErrSurfaceAllowed seeds one stale entry ("Gone" matches nothing).
var ErrSurfaceAllowed = []string{
	"fix/errsurface.ErrTemp",
	"fix/errsurface.WireError",
	"fix/errsurface.Gone",
}
