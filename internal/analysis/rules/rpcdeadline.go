package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rased/internal/analysis"
)

// rpcdeadlinePkg is the package bound by the RPC deadline rule: the cluster
// tier, whose every outbound call crosses a process boundary.
const rpcdeadlinePkg = "rased/internal/cluster"

// RPCDeadline enforces the cluster tier's outbound-call contract: a remote
// shard can hang, so no RPC may fly without a context deadline, and its
// failure must stay inspectable, so the raw transport error may not be
// returned bare. Concretely, for every function in internal/cluster that
// calls an http.Client entry point (Do, Get, Post, PostForm, Head):
//
//   - the function must establish a deadline itself (a context.WithTimeout or
//     context.WithDeadline call in its body) or carry //rased:callerdeadline
//     in its doc comment — the audited claim that its request contexts
//     always arrive with a deadline already attached;
//   - the error assigned from such a call must not be returned as-is: wrap it
//     (fmt.Errorf with %w — the errwrap rule keeps the verb honest) so the
//     failing shard and endpoint survive into the router's error chain.
type RPCDeadline struct{}

// NewRPCDeadline returns the rpcdeadline analyzer.
func NewRPCDeadline() *RPCDeadline { return &RPCDeadline{} }

// Name implements analysis.Analyzer.
func (*RPCDeadline) Name() string { return "rpcdeadline" }

// Doc implements analysis.Analyzer.
func (*RPCDeadline) Doc() string {
	return "cluster RPCs run under a context deadline (WithTimeout/WithDeadline in the function, or //rased:callerdeadline on it) and their transport errors are wrapped, never returned bare"
}

// Directive implements analysis.Claimer.
func (*RPCDeadline) Directive() string { return "callerdeadline" }

// Run implements analysis.Analyzer.
func (*RPCDeadline) Run(pass *analysis.Pass) error {
	if pass.Pkg.Path != rpcdeadlinePkg {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			first := token.NoPos // the first outbound call
			hasDeadline := analysis.HasDirective(fd, "callerdeadline")
			// tainted is the set of variables currently holding an outbound
			// call's raw error (keyed by types object — the parser skips
			// ast.Object resolution).
			tainted := map[types.Object]bool{}
			identObj := func(id *ast.Ident) types.Object {
				if obj := pass.Pkg.Info.Defs[id]; obj != nil {
					return obj
				}
				return pass.Pkg.Info.Uses[id]
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isDeadlineCtor(pass.Pkg, n) {
						hasDeadline = true
					}
					if isHTTPClientCall(pass.Pkg, n) && first == token.NoPos {
						first = n.Pos()
					}
				case *ast.AssignStmt:
					// err (re)assigned: taint when the RHS is an outbound
					// call, clear otherwise.
					outbound := len(n.Rhs) == 1 && isRHSOutbound(pass.Pkg, n.Rhs[0])
					for _, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						obj := identObj(id)
						if obj == nil {
							continue
						}
						if outbound && strings.Contains(strings.ToLower(id.Name), "err") {
							tainted[obj] = true
						} else {
							delete(tainted, obj)
						}
					}
				case *ast.ReturnStmt:
					for _, res := range n.Results {
						if id, ok := res.(*ast.Ident); ok {
							if obj := identObj(id); obj != nil && tainted[obj] {
								pass.Reportf(n.Pos(), "%s returns an outbound RPC error bare; wrap it with fmt.Errorf(...%%w...) so the failing endpoint survives into the error chain", name)
							}
						}
					}
				}
				return true
			})
			if first != token.NoPos && !hasDeadline {
				pass.Reportf(first, "%s issues an outbound RPC without a context deadline; add context.WithTimeout/WithDeadline, or //rased:callerdeadline when every caller attaches one", name)
			}
		}
	}
	return nil
}

// httpClientCalls are the net/http client entry points: the http.Client
// methods and the package-level convenience wrappers.
var httpClientCalls = map[string]bool{"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true}

// isHTTPClient reports whether fn is a net/http client entry point — not,
// say, http.Header.Get.
func isHTTPClient(fn *types.Func) bool {
	if pkgPath(fn) != "net/http" || !httpClientCalls[fn.Name()] {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	p, ok := recv.Type().(*types.Pointer)
	return ok && isNetHTTPType(p.Elem(), "Client")
}

// isHTTPClientCall reports whether call invokes a net/http client entry point.
func isHTTPClientCall(pkg *analysis.Package, call *ast.CallExpr) bool {
	fn := analysis.Callee(pkg.Info, call)
	return fn != nil && isHTTPClient(fn)
}

// isDeadlineCtor reports whether call is context.WithTimeout or
// context.WithDeadline.
func isDeadlineCtor(pkg *analysis.Package, call *ast.CallExpr) bool {
	fn := analysis.Callee(pkg.Info, call)
	if fn == nil || pkgPath(fn) != "context" {
		return false
	}
	return fn.Name() == "WithTimeout" || fn.Name() == "WithDeadline"
}

// isRHSOutbound reports whether the assignment RHS is an outbound http call.
func isRHSOutbound(pkg *analysis.Package, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	return ok && isHTTPClientCall(pkg, call)
}
