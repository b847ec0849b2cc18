// Package errsurfacefix seeds the untyped-error escape classes the
// errsurface rule catches on a registered surface: errors.New and
// fmt.Errorf-without-%w on paths reachable from a handler, wrapping an
// unregistered sentinel, and constructing an unregistered error type. The
// clean patterns — wrapping a registered sentinel, propagating a callee
// error with %w, a named-constant format, errors born in a //rased:errsink
// function's argument list, functions off the surface — must stay silent.
// The package-clause annotation covers the registry's seeded stale entry.
package errsurfacefix // want "ErrSurfaceAllowed entry \"fix/errsurface.Gone\""

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// ErrTemp is the registered sentinel of this surface.
var ErrTemp = errors.New("errsurfacefix: temporarily out")

// ErrRogue is typed but not registered: wrapping it is flagged.
var ErrRogue = errors.New("errsurfacefix: rogue")

// refusedFmt is a named constant format: it is checked like a literal.
const refusedFmt = "query %q refused: %w"

// WireError is the registered error type of this surface.
type WireError struct{ Code string }

func (e *WireError) Error() string { return "wire " + e.Code }

// rogueError implements error but is not registered.
type rogueError struct{}

func (rogueError) Error() string { return "rogue" }

func handle(w http.ResponseWriter, r *http.Request) {
	if err := validate(r.URL.Query().Get("q")); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := construct(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
	}
}

// validate is two hops below the handler via the call graph.
func validate(q string) error {
	switch q {
	case "":
		return errors.New("empty query") // want "errors.New creates an untyped error"
	case "x":
		return fmt.Errorf("bad query %q", q) // want "without %w creates an untyped error"
	case "y":
		return fmt.Errorf("bad query %q: %w", q, ErrRogue) // want "unregistered sentinel fix/errsurface.ErrRogue"
	case "z":
		return fmt.Errorf("query %q refused: %w", q, ErrTemp) // ok: registered sentinel
	case "c":
		return fmt.Errorf(refusedFmt, q, ErrTemp) // ok: constant format wrapping a registered sentinel
	}
	return parse(q)
}

// parse propagates a stdlib error with %w: never flagged — the origin is
// outside this surface's packages.
func parse(q string) error {
	if _, err := strconv.Atoi(q); err != nil {
		return fmt.Errorf("parsing %q: %w", q, err)
	}
	return nil
}

func construct() error {
	if false {
		return rogueError{} // want "unregistered error type fix/errsurface.rogueError"
	}
	return &WireError{Code: "teapot"} // ok: registered type
}

// writeErr is the sink: it takes the status explicitly, so an error born
// directly in its argument list is already mapped.
//
//rased:errsink
func writeErr(w http.ResponseWriter, status int, err error) {
	http.Error(w, err.Error(), status)
}

// logErr has writeErr's shape but no //rased:errsink: an error born in its
// argument list is still an untyped origin.
func logErr(w http.ResponseWriter, status int, err error) {
	writeErr(w, status, err)
}

func handleDirect(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body")) // ok: sink argument
	logErr(w, http.StatusBadRequest, fmt.Errorf("bad body"))   // want "without %w creates an untyped error"
}

// offline is unreachable from any surface root: untyped errors here are not
// this rule's business.
func offline() error {
	return errors.New("not on the surface")
}
