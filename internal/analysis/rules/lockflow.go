package rules

import (
	"go/ast"
	"go/token"
	"go/types"

	"rased/internal/analysis"
)

// This file is lockorder's flow-sensitive mutex walker. It threads a
// held-lock set, keyed by global lock class (lockKey), through each function
// body — branches merge conservatively, a deferred Unlock keeps the mutex
// held to the end of the function, goroutine and function-literal bodies get
// their own empty state — and emits events at acquisitions, calls, and
// channel sends.

// lockSet maps a lock key to the position of the Lock call that acquired it.
type lockSet map[string]token.Pos

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// anyHeld returns a deterministic representative of the held locks.
func (s lockSet) anyHeld() string {
	best := ""
	for k := range s {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

func union(dst lockSet, srcs ...lockSet) lockSet {
	for _, src := range srcs {
		for k, v := range src {
			if _, ok := dst[k]; !ok {
				dst[k] = v
			}
		}
	}
	return dst
}

// lockEvents are the walker's callbacks.
type lockEvents struct {
	// onLock fires at a Lock/RLock call site, with the class of the mutex
	// being taken and the held set as it was BEFORE this acquisition (the
	// order edge source).
	onLock func(call *ast.CallExpr, key string, held lockSet)
	// onCall fires for every executed call expression that is not a
	// Lock/Unlock, with the current held set.
	onCall func(call *ast.CallExpr, held lockSet)
	// onSend fires at a channel send statement.
	onSend func(arrow token.Pos, held lockSet)
}

// lockFlow walks one function declaration (and the function literals inside
// it, each with fresh empty state).
type lockFlow struct {
	node    *analysis.FuncNode
	ev      lockEvents
	pending []*ast.BlockStmt // function-literal bodies awaiting their own walk
}

// walk processes a function body and every literal discovered inside it.
func (w *lockFlow) walk(body *ast.BlockStmt) {
	w.pending = append(w.pending, body)
	for len(w.pending) > 0 {
		b := w.pending[0]
		w.pending = w.pending[1:]
		w.walkStmts(b.List, lockSet{})
	}
}

// walkStmts walks a statement list threading the held-lock state through it.
// terminated reports that control cannot fall off the end (return/branch).
func (w *lockFlow) walkStmts(stmts []ast.Stmt, held lockSet) (out lockSet, terminated bool) {
	for _, s := range stmts {
		held, terminated = w.walkStmt(s, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func (w *lockFlow) walkStmt(s ast.Stmt, held lockSet) (lockSet, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.IfStmt:
		w.scan(s.Init, held)
		w.scan(s.Cond, held)
		var outcomes []lockSet
		if body, term := w.walkStmts(s.Body.List, held.clone()); !term {
			outcomes = append(outcomes, body)
		}
		if s.Else != nil {
			if els, term := w.walkStmt(s.Else, held.clone()); !term {
				outcomes = append(outcomes, els)
			}
		} else {
			outcomes = append(outcomes, held)
		}
		if len(outcomes) == 0 {
			return held, true
		}
		return union(outcomes[0].clone(), outcomes...), false
	case *ast.ForStmt:
		w.scan(s.Init, held)
		w.scan(s.Cond, held)
		w.scan(s.Post, held)
		body, _ := w.walkStmts(s.Body.List, held.clone())
		return union(held.clone(), body), false
	case *ast.RangeStmt:
		w.scan(s.X, held)
		body, _ := w.walkStmts(s.Body.List, held.clone())
		return union(held.clone(), body), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkCases(s, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.ReturnStmt:
		w.scan(s, held)
		return held, true
	case *ast.BranchStmt:
		return held, true
	case *ast.DeferStmt:
		// A deferred Unlock runs at function exit: the mutex stays held for
		// the remainder of the walk. Other deferred calls are not executed
		// here; only their argument expressions are evaluated now.
		if kind, _ := w.classifyLock(s.Call); kind != opNone {
			return held, false
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.pending = append(w.pending, lit.Body)
		}
		for _, arg := range s.Call.Args {
			w.scan(arg, held)
		}
		return held, false
	case *ast.GoStmt:
		// The spawned function runs concurrently, outside this critical
		// section; only the call's operands are evaluated under it.
		for _, arg := range s.Call.Args {
			w.scan(arg, held)
		}
		w.scan(s.Call.Fun, held)
		return held, false
	default:
		w.scan(s, held)
		return held, false
	}
}

// walkCases handles switch/type-switch/select: every clause starts from the
// current state; the resulting state is the conservative union of the
// surviving clauses (plus fallthrough past the statement).
func (w *lockFlow) walkCases(s ast.Stmt, held lockSet) (lockSet, bool) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		w.scan(s.Init, held)
		w.scan(s.Tag, held)
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		w.scan(s.Init, held)
		w.scan(s.Assign, held)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	outcomes := []lockSet{held}
	for _, cl := range clauses {
		var body []ast.Stmt
		sub := held.clone()
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.scan(e, held)
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				sub, _ = w.walkStmt(cl.Comm, sub)
			}
			body = cl.Body
		}
		if out, term := w.walkStmts(body, sub); !term {
			outcomes = append(outcomes, out)
		}
	}
	return union(outcomes[0].clone(), outcomes...), false
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// classifyLock recognizes sync mutex Lock/Unlock calls (including
// RLock/RUnlock) without touching the held state, returning the mutex's
// owner expression (the receiver of the Lock call).
func (w *lockFlow) classifyLock(call *ast.CallExpr) (kind lockOpKind, owner ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	fn, ok := w.node.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || pkgPath(fn) != "sync" {
		return opNone, nil
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return opLock, sel.X
	case "Unlock", "RUnlock":
		return opUnlock, sel.X
	}
	return opNone, nil
}

// scan inspects one leaf statement or expression in source order, applying
// lock transitions and emitting events. Function literals are queued for an
// independent walk with no locks held.
func (w *lockFlow) scan(n ast.Node, held lockSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.pending = append(w.pending, n.Body)
			return false
		case *ast.SendStmt:
			w.ev.onSend(n.Arrow, held)
		case *ast.CallExpr:
			switch kind, owner := w.classifyLock(n); kind {
			case opLock:
				key := lockKey(w.node, owner)
				w.ev.onLock(n, key, held)
				held[key] = n.Pos()
				return true
			case opUnlock:
				delete(held, lockKey(w.node, owner))
				return true
			}
			w.ev.onCall(n, held)
		}
		return true
	})
}
