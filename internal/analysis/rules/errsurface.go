package rules

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rased/internal/analysis"
)

// errSurfaceRegFile is the per-package registry opting a package into the
// exact-or-typed error contract. It carries the errsurfacereg build tag so it
// never ships in production builds; the analyzer reads it from the package
// directory. Its one []string var, ErrSurfaceAllowed, lists the qualified
// names ("pkgpath.Name") of the sentinels and error types this package may
// wrap or construct — the registered error vocabulary of the surface. The
// entries name other packages' declarations, so unlike the other rules'
// marks they cannot be a directive on the declaration itself.
const errSurfaceRegFile = "errsurface_reg.go"

// ErrSurface statically verifies PR 5's exact-or-typed error contract on the
// packages that declare an errsurface_reg.go registry (internal/server's
// public handlers and internal/cluster's wire): every error that can escape a
// surface root must be a registered sentinel, wrap one with %w, or be a
// registered error type.
//
// The check is interprocedural and function-granular: surface roots are the
// handler-shaped functions (an http.ResponseWriter and an *http.Request in
// the signature); any function in a registered package reachable from a root
// through the call graph (interface dispatch included) is on the surface, and
// inside those the analyzer flags the places untyped errors are born:
//
//   - errors.New(...) in a function body;
//   - fmt.Errorf without a %w verb;
//   - fmt.Errorf wrapping a package-level sentinel that is not registered in
//     ErrSurfaceAllowed;
//   - composite literals of error-implementing types not registered in
//     ErrSurfaceAllowed.
//
// Errors built directly in the argument list of a //rased:errsink function
// (writeErr-style functions that take the HTTP status or wire code
// explicitly) are exempt: the mapping the contract wants is right there.
// Propagation is never flagged — wrapping a local error value with %w moves
// responsibility to that error's own origin.
type ErrSurface struct {
	prog    *analysis.Program
	allowed map[*analysis.Package]map[string]bool // registered packages
}

// NewErrSurface returns the errsurface analyzer.
func NewErrSurface() *ErrSurface {
	return &ErrSurface{allowed: map[*analysis.Package]map[string]bool{}}
}

// Name implements analysis.Analyzer.
func (*ErrSurface) Name() string { return "errsurface" }

// Doc implements analysis.Analyzer.
func (*ErrSurface) Doc() string {
	return "errors escaping a registered error surface (server handlers, cluster wire) must be or wrap a sentinel/type registered in the package's errsurface_reg.go"
}

// Directive implements analysis.Claimer.
func (*ErrSurface) Directive() string { return "errsink" }

// Run parses the package's registry when one exists; the whole-program work
// happens in Finish.
func (es *ErrSurface) Run(pass *analysis.Pass) error {
	es.prog = pass.Prog
	path := filepath.Join(pass.Pkg.Dir, errSurfaceRegFile)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	pkgPos := pass.Pkg.Files[0].Name.Pos()
	if !strings.Contains(string(raw), "//go:build errsurfacereg") {
		pass.Reportf(pkgPos, "%s must carry the errsurfacereg build tag so the registry never ships in production builds", errSurfaceRegFile)
	}
	allowed, err := parseAllowed(path, raw)
	if err != nil {
		return err
	}
	if allowed == nil {
		pass.Reportf(pkgPos, "%s declares no ErrSurfaceAllowed []string registry", errSurfaceRegFile)
		allowed = map[string]bool{}
	}
	es.allowed[pass.Pkg] = allowed
	return nil
}

// parseAllowed extracts the ErrSurfaceAllowed string set from the raw
// registry source (parsed with its own FileSet: the file is excluded from the
// loaded package by its build tag). Returns nil when the variable is absent.
func parseAllowed(path string, raw []byte) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, raw, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if name.Name != "ErrSurfaceAllowed" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				out := map[string]bool{}
				for _, elt := range cl.Elts {
					lit, ok := elt.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					if s, err := strconv.Unquote(lit.Value); err == nil {
						out[s] = true
					}
				}
				return out, nil
			}
		}
	}
	return nil, nil
}

// Finish resolves the surface roots, walks the call graph, and flags untyped
// error origins in registered packages reachable from a root.
func (es *ErrSurface) Finish(r *analysis.Reporter) error {
	if es.prog == nil || len(es.allowed) == 0 {
		return nil
	}
	for pkg := range es.allowed {
		es.checkAllowedEntries(r, pkg)
	}

	// BFS from the handler roots with parent tracking so every finding can
	// name the surface root it is reachable from.
	var queue []*analysis.FuncNode
	rootOf := map[*analysis.FuncNode]*analysis.FuncNode{} // node -> witness root
	for _, n := range es.prog.Nodes() {
		if es.allowed[n.Pkg] != nil && isHandlerShaped(n.Fn) {
			queue = append(queue, n)
			rootOf[n] = n
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, cs := range n.Calls {
			for _, c := range cs.Callees {
				if _, ok := rootOf[c]; !ok {
					rootOf[c] = rootOf[n]
					queue = append(queue, c)
				}
			}
		}
	}

	for _, n := range es.prog.Nodes() {
		allowed := es.allowed[n.Pkg]
		root, reachable := rootOf[n]
		if allowed == nil || !reachable {
			continue
		}
		if root != n && !returnsError(n.Fn) {
			continue
		}
		es.checkOrigins(r, n, allowed, root)
	}
	return nil
}

// returnsError reports whether any result of fn is the builtin error.
func returnsError(fn *types.Func) bool {
	results := fn.Type().(*types.Signature).Results()
	for i := 0; i < results.Len(); i++ {
		if types.Identical(results.At(i).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}

// checkAllowedEntries validates the registry's error vocabulary: every entry
// naming a module package must resolve to an error sentinel var or an
// error-implementing type there. Entries pointing outside the loaded program
// (stdlib sentinels like context.Canceled) are accepted as written.
func (es *ErrSurface) checkAllowedEntries(r *analysis.Reporter, pkg *analysis.Package) {
	pkgPos := pkg.Files[0].Name.Pos()
	byPath := map[string]*analysis.Package{}
	for _, p := range es.prog.Pkgs {
		byPath[p.Path] = p
	}
	for entry := range es.allowed[pkg] {
		dot := strings.LastIndex(entry, ".")
		if dot < 0 {
			r.Reportf(pkgPos, "ErrSurfaceAllowed entry %q is not a qualified pkgpath.Name", entry)
			continue
		}
		epkg, name := entry[:dot], entry[dot+1:]
		target, loaded := byPath[epkg]
		if !loaded {
			continue
		}
		obj := target.Types.Scope().Lookup(name)
		switch obj := obj.(type) {
		case *types.Var:
			if !implementsError(obj.Type()) {
				r.Reportf(pkgPos, "ErrSurfaceAllowed entry %q is not an error sentinel (type %s)", entry, obj.Type())
			}
		case *types.TypeName:
			if !implementsError(obj.Type()) {
				r.Reportf(pkgPos, "ErrSurfaceAllowed entry %q names a type that does not implement error", entry)
			}
		default:
			r.Reportf(pkgPos, "ErrSurfaceAllowed entry %q matches no var or type in %s", entry, epkg)
		}
	}
}

// checkOrigins walks one on-surface function flagging untyped error births.
func (es *ErrSurface) checkOrigins(r *analysis.Reporter, n *analysis.FuncNode, allowed map[string]bool, root *analysis.FuncNode) {
	info := n.Pkg.Info
	where := fmt.Sprintf("on the %s error surface (reachable from %s)", n.Pkg.Types.Name(), root.Name())
	sinkArgs := map[ast.Node]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if sinkArgs[node] {
			return false
		}
		switch node := node.(type) {
		case *ast.CallExpr:
			if fn := analysis.Callee(info, node); fn != nil {
				if fnode := es.prog.Node(fn); fnode != nil && fnode.Pkg == n.Pkg && analysis.HasDirective(fnode.Decl, "errsink") {
					for _, arg := range node.Args {
						sinkArgs[arg] = true
					}
					return true
				}
				checkErrorCall(r, info, node, fn, allowed, where)
			}
		case *ast.CompositeLit:
			checkConstruction(r, info, node, allowed, where)
		}
		return true
	})
}

// checkErrorCall classifies errors.New and fmt.Errorf call sites.
func checkErrorCall(r *analysis.Reporter, info *types.Info, call *ast.CallExpr, fn *types.Func, allowed map[string]bool, where string) {
	switch {
	case pkgPath(fn) == "errors" && fn.Name() == "New":
		r.Reportf(call.Pos(), "errors.New creates an untyped error %s; return a sentinel registered in ErrSurfaceAllowed or wrap one with fmt.Errorf(...%%w...)", where)
	case pkgPath(fn) == "fmt" && fn.Name() == "Errorf":
		if len(call.Args) == 0 {
			return
		}
		format, ok := constString(info, call.Args[0])
		if !ok {
			// A non-constant format cannot be verified statically; treat it
			// as untyped so it cannot hide an unregistered escape.
			r.Reportf(call.Pos(), "fmt.Errorf with a non-constant format cannot be verified %s; use a constant format wrapping a registered sentinel with %%w", where)
			return
		}
		if !strings.Contains(format, "%w") {
			r.Reportf(call.Pos(), "fmt.Errorf without %%w creates an untyped error %s; wrap a sentinel registered in ErrSurfaceAllowed", where)
			return
		}
		for _, arg := range call.Args[1:] {
			if v := packageSentinel(info, arg); v != nil {
				if q := qualifiedName(v); !allowed[q] {
					r.Reportf(arg.Pos(), "wrapping unregistered sentinel %s %s; register it in ErrSurfaceAllowed or wrap a registered one", q, where)
				}
			}
		}
	}
}

// checkConstruction flags composite literals of unregistered error types.
func checkConstruction(r *analysis.Reporter, info *types.Info, lit *ast.CompositeLit, allowed map[string]bool, where string) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	named := namedOf(tv.Type)
	if named == nil || !implementsError(named) {
		return
	}
	if q := qualifiedName(named.Obj()); !allowed[q] {
		r.Reportf(lit.Pos(), "construction of unregistered error type %s %s; register it in ErrSurfaceAllowed so callers can dispatch on it", q, where)
	}
}

// packageSentinel resolves arg to a package-level error var, or nil for local
// values, call results, and non-error expressions (all of which are
// propagation, not origin).
func packageSentinel(info *types.Info, arg ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !implementsError(v.Type()) {
		return nil
	}
	return v
}

// implementsError reports whether t (or *t) satisfies the error interface.
func implementsError(t types.Type) bool {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

// qualifiedName renders obj as pkgpath.Name.
func qualifiedName(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// isHandlerShaped reports whether fn's parameters include an
// http.ResponseWriter and an *http.Request — the auto-detected surface roots.
func isHandlerShaped(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	var hasWriter, hasRequest bool
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		switch t := params.At(i).Type(); {
		case isNetHTTPType(t, "ResponseWriter"):
			hasWriter = true
		default:
			if p, ok := t.(*types.Pointer); ok && isNetHTTPType(p.Elem(), "Request") {
				hasRequest = true
			}
		}
	}
	return hasWriter && hasRequest
}

// isNetHTTPType reports whether t is net/http's named type with this name.
func isNetHTTPType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == name
}
