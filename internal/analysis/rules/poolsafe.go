package rules

import (
	"go/ast"
	"go/token"
	"go/types"

	"rased/internal/analysis"
)

// Poolsafe enforces the donation model from DESIGN.md's "Hot-path memory
// model": a value obtained from a pool must not be silently dropped. Within
// each function, every assignment whose right-hand side is a pool get —
// (*sync.Pool).Get or the cube.PagePool accessors GetBuf/GetCube — creates an
// obligation on the assigned variable that must be discharged somewhere in the
// function by one of:
//
//   - passing it to a call (Put/Release, or any handoff that transfers
//     ownership, including deferred and spawned calls);
//   - returning it;
//   - storing it into a non-blank location (field, map, slice element);
//   - sending it on a channel;
//   - placing it in a composite literal.
//
// Assigning the value to the blank identifier does NOT discharge the
// obligation, and neither does a builtin call (len and cap read the value
// without taking ownership). Getting a pooled value directly into the blank
// identifier is flagged immediately. The rule is intraprocedural and
// deliberately optimistic: one discharge anywhere in the function clears the
// obligation even if some paths skip it — it catches dropped values, not
// every conditional leak.
type Poolsafe struct{}

// NewPoolsafe returns the poolsafe analyzer.
func NewPoolsafe() *Poolsafe { return &Poolsafe{} }

// Name implements analysis.Analyzer.
func (*Poolsafe) Name() string { return "poolsafe" }

// Doc implements analysis.Analyzer.
func (*Poolsafe) Doc() string {
	return "every value obtained from a sync.Pool or the cube page pool is put back, handed off, or returned"
}

// Run implements analysis.Analyzer.
func (p *Poolsafe) Run(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				p.checkFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// poolObligation is one pooled value awaiting discharge.
type poolObligation struct {
	obj types.Object
	pos token.Pos
	src string          // rendering of the get call, for the report
	def *ast.AssignStmt // the defining assignment (its idents don't discharge)
}

// checkFunc collects pool-get obligations in body (including nested function
// literals — closures share the variables) and verifies each is discharged.
func (p *Poolsafe) checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// Pass 1: find obligations.
	var obs []*poolObligation
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call := getCall(as.Rhs[0])
		if call == nil || !p.isPoolGet(info, call) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			// Multi-value gets (cb, err := ...): the error result carries no
			// obligation.
			if len(as.Lhs) > 1 && isErrorIdent(info, id) {
				continue
			}
			if id.Name == "_" {
				pass.Reportf(as.Lhs[i].Pos(), "pooled value from %s is discarded; put it back or hand it off",
					types.ExprString(call.Fun))
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id] // plain `=` re-assignment
			}
			if obj == nil {
				continue
			}
			obs = append(obs, &poolObligation{
				obj: obj,
				pos: id.Pos(),
				src: types.ExprString(call.Fun),
				def: as,
			})
		}
		return true
	})
	if len(obs) == 0 {
		return
	}

	// Pass 2: find discharges.
	discharged := make(map[types.Object]bool)
	// mark records every identifier in a discharging position. Three subtrees
	// are not value handoffs and are skipped: a selector's base (cb.Total()
	// flows a uint64 out, not the cube), a builtin call (len reads without
	// taking ownership), and a nested function literal (capturing a variable
	// is not releasing it).
	mark := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.SelectorExpr:
				return false
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if _, builtin := info.Uses[id].(*types.Builtin); builtin {
						return false
					}
				}
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil {
					discharged[obj] = true
				}
			}
			return true
		})
	}
	defs := make(map[*ast.AssignStmt]bool, len(obs))
	for _, ob := range obs {
		defs[ob.def] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// A builtin (len, cap, ...) reads the value without taking
			// ownership; any other call is a handoff.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					return true
				}
			}
			for _, arg := range n.Args {
				mark(arg)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				mark(r)
			}
		case *ast.SendStmt:
			mark(n.Value)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				mark(e)
			}
		case *ast.AssignStmt:
			if defs[n] {
				return true
			}
			// Storing the value somewhere non-blank transfers ownership;
			// `_ = x` does not.
			blankOnly := true
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					blankOnly = false
					break
				}
			}
			if !blankOnly {
				for _, rhs := range n.Rhs {
					mark(rhs)
				}
			}
		}
		return true
	})

	for _, ob := range obs {
		if !discharged[ob.obj] {
			pass.Reportf(ob.pos, "pooled value %s obtained from %s is never put back, handed off, or returned",
				ob.obj.Name(), ob.src)
		}
	}
}

// getCall unwraps an assignment RHS to the underlying call, looking through
// the type assertion of the sync.Pool idiom `p.Get().(*T)`.
func getCall(e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, _ := e.(*ast.CallExpr)
	return call
}

// isPoolGet reports whether call obtains a pooled value: (*sync.Pool).Get or
// the cube.PagePool accessors. The tindex pooled fetchers are not listed —
// their implementations are checked here transitively, and their callers
// follow the donation model documented on those functions.
func (p *Poolsafe) isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	switch pkgPath(fn) {
	case "sync":
		return fn.Name() == "Get" && recvNamed(sig) == "Pool"
	case "rased/internal/cube":
		return (fn.Name() == "GetBuf" || fn.Name() == "GetCube") && recvNamed(sig) == "PagePool"
	}
	return false
}

// recvNamed returns the name of the receiver's base named type ("" if none).
func recvNamed(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// isErrorIdent reports whether id's type is the built-in error interface.
func isErrorIdent(info *types.Info, id *ast.Ident) bool {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return false
	}
	return types.Identical(obj.Type(), types.Universe.Lookup("error").Type())
}
