// Package rules ships RASED's project-specific analyzers. Each rule turns
// one invariant from DESIGN.md's "Enforced invariants" section into a
// machine-checked pass over the type-checked tree:
//
//	ctxflow     context flows end-to-end: no context.Background()/TODO()
//	            outside main/tests/compat shims, code holding a ctx calls the
//	            FooCtx/FooContext variant of a callee when one exists, and a
//	            for loop that sleeps consults ctx.Err()/ctx.Done()
//	metricsreg  obs instruments use unique constant rased_* names and flow
//	            into a registry or a wiring accessor
//	errwrap     fmt.Errorf with an error argument wraps it with %w
//	determinism no wall clock or math/rand in the pure planning/encoding
//	            packages the plan-order merge depends on
//	poolsafe    values obtained from a sync.Pool or the cube page pool are
//	            put back, handed off, or returned — never silently dropped
//	epochsafe   published cube pages are immutable: WritePage/Append/
//	            WriteExtent/AppendExtent in tindex only in //rased:pagewrite
//	            functions
//	rpcdeadline cluster RPCs run under a context deadline (or in a
//	            //rased:callerdeadline function) and their transport errors
//	            are wrapped, never returned bare
//	lockorder   no blocking call or channel send while a mutex is held; nested
//	            acquisitions — direct or through any call chain — form one
//	            global lock-order graph whose cycles are potential deadlocks,
//	            and a held lock must not reach blocking work downstream
//	errsurface  errors escaping a public server handler or crossing the
//	            cluster wire must be, or %w-wrap, a sentinel or error type
//	            listed in the package's errsurface_reg.go
//	hotalloc    //rased:hotpath functions (the zero-alloc hot paths) produce
//	            no allocation-class escape diagnostics under
//	            go build -gcflags=-m
//
// The last three are interprocedural: they share the whole-program call
// graph built once per run (analysis.Program) and compute their summaries
// bottom-up over its SCCs. Four rules read a //rased: directive off function
// doc comments (analysis.HasDirective); analysis.CheckDirectives rejects a
// directive no rule reads.
package rules

import (
	"go/ast"
	"go/constant"
	"go/types"

	"rased/internal/analysis"
)

// All returns a fresh instance of every shipped analyzer. Instances carry
// per-run state (metricsreg accumulates names across packages), so each lint
// run must use its own set.
func All() []analysis.Analyzer {
	return []analysis.Analyzer{
		NewCtxflow(),
		NewMetricsReg(),
		NewErrWrap(),
		NewDeterminism(DefaultPurePackages...),
		NewPoolsafe(),
		NewEpochsafe(),
		NewRPCDeadline(),
		NewLockOrder(),
		NewErrSurface(),
		NewHotAlloc(),
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// sigHasContext reports whether any parameter of sig is a context.Context.
func sigHasContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// pkgPath returns the import path of the object's package ("" for universe
// objects).
func pkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// constString returns the value of a constant string expression — a literal
// or a named constant such as `const f = "...%w"` — and whether e is one.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
