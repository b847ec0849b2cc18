package rules

import (
	"go/ast"
	"go/types"

	"rased/internal/analysis"
)

// Ctxflow enforces PR 2's end-to-end context discipline on the query path:
//
//   - context.Background() and context.TODO() are banned outside package
//     main, test files (not loaded by the lint loader), and the documented
//     compat shims — a function whose whole body forwards to its own
//     FooCtx/FooContext variant (tindex.Fetch, pagestore.ReadPage,
//     core.Engine.Analyze);
//   - a function that has a context.Context in scope must not call the
//     context-less variant of a callee that also provides a FooCtx or
//     FooContext form — exactly the drift that would silently detach
//     cancellation from the disk path.
type Ctxflow struct{}

// NewCtxflow returns the ctxflow analyzer.
func NewCtxflow() *Ctxflow { return &Ctxflow{} }

// Name implements analysis.Analyzer.
func (*Ctxflow) Name() string { return "ctxflow" }

// Doc implements analysis.Analyzer.
func (*Ctxflow) Doc() string {
	return "context must flow end-to-end: no Background()/TODO() outside main and compat shims; prefer FooCtx variants when a ctx is in scope"
}

// Run implements analysis.Analyzer.
func (c *Ctxflow) Run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Types.Name() == "main"
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			shim := isCompatShim(fd)
			hasCtx := fieldListHasContext(pass.Pkg.Info, fd.Type.Params)
			c.walk(pass, fd.Body, isMain, shim, hasCtx)
		}
	}
	return nil
}

// walk inspects a function body. ctxInScope propagates into closures: a
// literal nested in a ctx-holding function captures that ctx.
func (c *Ctxflow) walk(pass *analysis.Pass, body ast.Node, isMain, shim, ctxInScope bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.walk(pass, n.Body, isMain, shim, ctxInScope || fieldListHasContext(pass.Pkg.Info, n.Type.Params))
			return false
		case *ast.CallExpr:
			c.checkCall(pass, n, isMain, shim, ctxInScope)
		}
		return true
	})
}

func (c *Ctxflow) checkCall(pass *analysis.Pass, call *ast.CallExpr, isMain, shim, ctxInScope bool) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil {
		return
	}
	if pkgPath(fn) == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
		if !isMain && !shim {
			pass.Reportf(call.Pos(), "context.%s() outside main and compat shims breaks end-to-end cancellation; accept and forward a ctx instead", fn.Name())
		}
		return
	}
	if !ctxInScope {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sigHasContext(sig) {
		return
	}
	if sib := ctxSibling(fn); sib != "" {
		pass.Reportf(call.Pos(), "calls %s while a context is in scope; call %s and forward the ctx", fn.Name(), sib)
	}
}

// ctxSibling returns the name of fn's context-aware variant (fnCtx or
// fnContext, taking a context.Context), or "" when none exists.
func ctxSibling(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	for _, suffix := range []string{"Ctx", "Context"} {
		name := fn.Name() + suffix
		var obj types.Object
		if recv := sig.Recv(); recv != nil {
			obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
		} else if fn.Pkg() != nil {
			obj = fn.Pkg().Scope().Lookup(name)
		}
		if sfn, ok := obj.(*types.Func); ok {
			if ssig, ok := sfn.Type().(*types.Signature); ok && sigHasContext(ssig) {
				return name
			}
		}
	}
	return ""
}

// fieldListHasContext reports whether a parameter list declares a
// context.Context.
func fieldListHasContext(info *types.Info, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, field := range params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isCompatShim recognizes the documented pattern keeping pre-context APIs
// alive: the entire body is `return x.FooCtx(context.Background(), ...)` (or
// FooContext) for a function named Foo.
func isCompatShim(fd *ast.FuncDecl) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	for _, res := range ret.Results {
		call, ok := ast.Unparen(res).(*ast.CallExpr)
		if !ok {
			continue
		}
		var callee string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callee = fun.Name
		case *ast.SelectorExpr:
			callee = fun.Sel.Name
		}
		if callee == fd.Name.Name+"Ctx" || callee == fd.Name.Name+"Context" {
			return true
		}
	}
	return false
}
