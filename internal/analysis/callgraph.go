package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural layer under the whole-program rules
// (lockorder, errsurface): a call graph over every function declared in the
// loaded packages, with conservative resolution of interface and method
// calls, condensed into strongly connected components so per-function
// summaries can be computed bottom-up (callees before callers, recursion
// handled by fixpoint over one SCC at a time).
//
// Resolution policy (deliberately conservative in both directions):
//
//   - direct calls and method calls on concrete receivers resolve to exactly
//     the called *types.Func;
//   - calls through an interface method resolve to every concrete method in
//     the loaded program whose receiver type implements the interface —
//     an over-approximation (the analysis never misses a callee that exists
//     in the module) that rules must keep in mind when reporting;
//   - calls of plain function-typed values (stored closures, fields) resolve
//     to nothing: the value's origin is not tracked. Rules relying on the
//     graph for soundness must treat unresolved calls accordingly.

// CallSite is one call expression inside a declared function, annotated with
// how it executes and what it may invoke.
type CallSite struct {
	Call *ast.CallExpr
	// Callees lists the resolved candidate targets among the program's
	// declared functions, in deterministic (declaration) order. Empty for
	// calls of plain function values and calls into packages outside the
	// loaded program (stdlib included).
	Callees []*FuncNode
	// Dynamic marks an interface-method call (Callees is the implementer
	// over-approximation, not an exact target).
	Dynamic bool
	// Go marks the call expression of a `go` statement: the callee runs
	// concurrently, not under the caller's critical sections.
	Go bool
	// Deferred marks the call expression of a `defer` statement.
	Deferred bool
	// InLiteral marks calls written inside a function literal of the
	// enclosing declaration. The literal may run synchronously (a sort
	// comparator) or escape; flow-sensitive rules handle literals
	// themselves, summary rules treat them as reachable.
	InLiteral bool
}

// FuncNode is one declared function or method of the loaded program.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists every call site in the declaration (body and nested
	// function literals), in source order.
	Calls []*CallSite

	index, lowlink int
	onStack        bool
}

// Name returns the package-qualified display name, e.g.
// "rased/internal/cube.(*Cube).AggregatePlanInto".
func (n *FuncNode) Name() string {
	return n.Pkg.Path + "." + n.DeclName()
}

// DeclName returns the package-local name: "Func" for package functions,
// "(*T).Method" or "T.Method" for methods.
func (n *FuncNode) DeclName() string {
	sig := n.Fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return n.Fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		if named, ok := p.Elem().(*types.Named); ok {
			return "(*" + named.Obj().Name() + ")." + n.Fn.Name()
		}
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + n.Fn.Name()
	}
	return n.Fn.Name()
}

// Program is the whole-program call graph over a set of loaded packages.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	funcs map[*types.Func]*FuncNode
	nodes []*FuncNode // declaration order: packages, then files, then decls
	sccs  [][]*FuncNode

	// concrete lists every non-interface named type declared in the program,
	// for interface-dispatch resolution.
	concrete []*types.Named
}

// NewProgram builds the call graph for the given packages (typically every
// package of the module).
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	p := &Program{
		Fset:  fset,
		Pkgs:  pkgs,
		funcs: make(map[*types.Func]*FuncNode),
	}
	p.indexFuncs()
	p.indexConcrete()
	for _, n := range p.nodes {
		p.resolveCalls(n)
	}
	p.condense()
	return p
}

// indexFuncs records a node per function declaration with a body.
func (p *Program) indexFuncs() {
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				p.funcs[fn] = node
				p.nodes = append(p.nodes, node)
			}
		}
	}
}

// indexConcrete collects the named non-interface types of the program.
func (p *Program) indexConcrete() {
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // sorted, so the index is deterministic
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			p.concrete = append(p.concrete, named)
		}
	}
}

// Node returns the program node for fn, or nil when fn has no body in the
// loaded program.
func (p *Program) Node(fn *types.Func) *FuncNode { return p.funcs[fn] }

// Nodes returns every declared function in deterministic declaration order.
func (p *Program) Nodes() []*FuncNode { return p.nodes }

// resolveCalls walks one declaration recording every call site.
func (p *Program) resolveCalls(n *FuncNode) {
	goCalls := map[*ast.CallExpr]bool{}
	deferCalls := map[*ast.CallExpr]bool{}
	var litDepth int
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.GoStmt:
				goCalls[node.Call] = true
			case *ast.DeferStmt:
				deferCalls[node.Call] = true
			case *ast.FuncLit:
				litDepth++
				walk(node.Body)
				litDepth--
				return false
			case *ast.CallExpr:
				callees, dynamic := p.ResolveCall(n.Pkg, node)
				n.Calls = append(n.Calls, &CallSite{
					Call:      node,
					Callees:   callees,
					Dynamic:   dynamic,
					Go:        goCalls[node],
					Deferred:  deferCalls[node],
					InLiteral: litDepth > 0,
				})
			}
			return true
		})
	}
	walk(n.Decl.Body)
}

// ResolveCall resolves one call expression from pkg to its candidate targets
// in the program, reporting whether the call is dynamic (interface dispatch).
func (p *Program) ResolveCall(pkg *Package, call *ast.CallExpr) (callees []*FuncNode, dynamic bool) {
	fn := Callee(pkg.Info, call)
	if fn == nil {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, false
	}
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return p.implementersOf(recv.Type(), fn.Name()), true
	}
	if node := p.funcs[fn]; node != nil {
		return []*FuncNode{node}, false
	}
	return nil, false
}

// implementersOf finds the declared methods named name on program types
// implementing the interface, the conservative candidate set for a dynamic
// call.
func (p *Program) implementersOf(ifaceType types.Type, name string) []*FuncNode {
	iface, ok := ifaceType.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncNode
	seen := map[*FuncNode]bool{}
	for _, named := range p.concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), name)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := p.funcs[m]; node != nil && !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// Callee resolves a call expression to the invoked *types.Func (direct
// calls, method calls, and method expressions), or nil for conversions,
// builtins, and calls of plain function-typed values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeNodes returns the deduplicated callee set of a node across every call
// site.
func (n *FuncNode) calleeNodes() []*FuncNode {
	var out []*FuncNode
	seen := map[*FuncNode]bool{}
	for _, cs := range n.Calls {
		for _, c := range cs.Callees {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// condense runs Tarjan's SCC algorithm over the call edges. SCCs
// come out in reverse topological order — every SCC is emitted after the
// SCCs it calls into — which is exactly the bottom-up order summary
// computations need.
func (p *Program) condense() {
	index := 1
	var stack []*FuncNode
	var strongconnect func(v *FuncNode)
	strongconnect = func(v *FuncNode) {
		v.index, v.lowlink = index, index
		index++
		stack = append(stack, v)
		v.onStack = true
		for _, w := range v.calleeNodes() {
			if w.index == 0 {
				strongconnect(w)
				if w.lowlink < v.lowlink {
					v.lowlink = w.lowlink
				}
			} else if w.onStack && w.index < v.lowlink {
				v.lowlink = w.index
			}
		}
		if v.lowlink == v.index {
			var scc []*FuncNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			p.sccs = append(p.sccs, scc)
		}
	}
	for _, v := range p.nodes {
		if v.index == 0 {
			strongconnect(v)
		}
	}
}

// SCCs returns the strongly connected components of the call graph in
// bottom-up (callees-first) order.
func (p *Program) SCCs() [][]*FuncNode { return p.sccs }
