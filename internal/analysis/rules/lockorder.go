package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"rased/internal/analysis"
)

// LockOrder is a whole-program analysis over every sync.Mutex/RWMutex in the
// module: nothing slow or blocking may run between a Lock() and its
// Unlock(), directly or through any call chain, and locks nest in one global
// order.
//
// Lock identity is the lock *class*: a struct field ("pkg.Type.mu"), a
// package-level var ("pkg.mu"), an embedded mutex ("pkg.Type"), or — for
// function-local mutexes — the declaring function ("pkg.Func.mu"). Two
// instances of the same class share a key, the standard conservative choice
// for order analysis.
//
// Three findings are produced. The first comes from the flow-sensitive walk
// of each function (lockflow.go); the other two from per-function summaries
// computed bottom-up over the call-graph SCCs (analysis.Program):
//
//  1. direct blocking under a held lock: a blockingCall (time.Sleep, os
//     file I/O, an os.File I/O method, an outbound net/http call) or a
//     channel send (including a select send case) while any mutex is held
//     — the rule that caught an fsync under the pagestore allocation mutex.
//
//  2. lock-order cycles: every acquisition of lock B while lock A is held —
//     directly, or anywhere in the transitive call tree below a call made
//     with A held — is an order edge A→B. A cycle in the global edge graph
//     (including a self-edge: re-acquiring the same class while holding it)
//     means two executions can take the locks in opposite orders: a
//     potential deadlock, reported once per cycle with the witness edges.
//
//  3. lock-held blocking reach: a call made while a lock is held whose
//     callee — transitively, through any chain including interface dispatch
//     — reaches a blocking operation (a blockingCall, a channel operation, or
//     a select without default). This is finding 1 extended across function
//     boundaries; the report carries the witness chain.
//
// Goroutine bodies spawned with `go` run outside the spawning critical
// section and are analyzed with their own empty lock state; calls of plain
// function values (stored closures) are unresolvable and conservatively
// ignored, as in the rest of the interprocedural layer.
type LockOrder struct {
	prog *analysis.Program
	pkgs map[*analysis.Package]bool
}

// NewLockOrder returns the lockorder analyzer.
func NewLockOrder() *LockOrder { return &LockOrder{pkgs: map[*analysis.Package]bool{}} }

// Name implements analysis.Analyzer.
func (*LockOrder) Name() string { return "lockorder" }

// Doc implements analysis.Analyzer.
func (*LockOrder) Doc() string {
	return "no blocking call or channel send while a mutex is held, no cycles in the whole-program lock-order graph, and no held lock may transitively reach blocking work (disk I/O, sleeps, channel ops, outbound RPCs) through any call chain"
}

// Run implements analysis.Analyzer: it only records the shared program; the
// whole-program work happens once, in Finish.
func (lo *LockOrder) Run(pass *analysis.Pass) error {
	lo.prog = pass.Prog
	lo.pkgs[pass.Pkg] = true
	return nil
}

// blockWitness describes why a function (transitively) blocks: what the
// operation is, where, and through which calls it is reached.
type blockWitness struct {
	desc  string    // "time.Sleep", "channel send", ...
	pos   token.Pos // the blocking operation itself
	chain []string  // call path, outermost first: "pkg.Func (file:line)"
}

// lockAcqFact is one Lock/RLock call site with the lock set held on entry.
type lockAcqFact struct {
	key  string
	pos  token.Pos
	held lockSet
}

// lockCallFact is one resolved call site with the lock set held around it.
type lockCallFact struct {
	pos     token.Pos
	held    lockSet
	callees []*analysis.FuncNode
	dynamic bool
}

// lockFacts is the per-function direct summary.
type lockFacts struct {
	acquires []lockAcqFact
	calls    []lockCallFact
	blocking []blockWitness // direct blocking operations, in source order
}

// orderEdge is one edge of the global lock-order graph with its witness.
type orderEdge struct {
	from, to string
	pos      token.Pos // acquisition or call site creating the edge
	via      string    // "" for a direct nested acquisition, else the callee
}

// Finish implements analysis.Finisher: walks every function, computes
// summaries bottom-up, and reports cycles and lock-held blocking reach.
func (lo *LockOrder) Finish(r *analysis.Reporter) error {
	if lo.prog == nil {
		return nil
	}
	prog := lo.prog
	facts := make(map[*analysis.FuncNode]*lockFacts, len(prog.Nodes()))
	for _, n := range prog.Nodes() {
		if lo.pkgs[n.Pkg] {
			facts[n] = lo.collect(n, r)
		} else {
			facts[n] = &lockFacts{}
		}
	}

	// Bottom-up summaries over SCCs: the lock classes a call may acquire and
	// the first blocking operation it may reach.
	transAcq := make(map[*analysis.FuncNode]map[string]token.Pos)
	transBlock := make(map[*analysis.FuncNode]*blockWitness)
	for _, scc := range prog.SCCs() {
		// Acquired classes: the union across the component and its external
		// callees (already computed — SCCs arrive callees-first).
		acq := map[string]token.Pos{}
		for _, n := range scc {
			for _, a := range facts[n].acquires {
				if _, ok := acq[a.key]; !ok {
					acq[a.key] = a.pos
				}
			}
			for _, c := range facts[n].calls {
				for _, callee := range c.callees {
					for k, p := range transAcq[callee] {
						if _, ok := acq[k]; !ok {
							acq[k] = p
						}
					}
				}
			}
		}
		for _, n := range scc {
			transAcq[n] = acq
		}
		// Blocking reach: iterate to a fixpoint within the component so
		// mutual recursion converges (bounded by the component size).
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if transBlock[n] != nil {
					continue
				}
				if w := lo.firstBlock(n, facts[n], transBlock, r); w != nil {
					transBlock[n] = w
					changed = true
				}
			}
		}
	}

	lo.reportBlockingReach(r, prog, facts, transBlock)
	lo.reportCycles(r, prog, facts, transAcq)
	return nil
}

// firstBlock returns n's blocking witness: its first direct blocking
// operation, or the first call in source order whose callee set contains a
// blocking function.
func (lo *LockOrder) firstBlock(n *analysis.FuncNode, f *lockFacts, transBlock map[*analysis.FuncNode]*blockWitness, r *analysis.Reporter) *blockWitness {
	if len(f.blocking) > 0 {
		w := f.blocking[0]
		return &w
	}
	for _, c := range f.calls {
		for _, callee := range c.callees {
			if inner := transBlock[callee]; inner != nil {
				chain := append([]string{fmt.Sprintf("%s (%s)", callee.Name(), r.Pos(c.pos))}, inner.chain...)
				return &blockWitness{desc: inner.desc, pos: inner.pos, chain: chain}
			}
		}
	}
	return nil
}

// reportBlockingReach flags calls made under a held lock whose callee
// transitively blocks.
func (lo *LockOrder) reportBlockingReach(r *analysis.Reporter, prog *analysis.Program, facts map[*analysis.FuncNode]*lockFacts, transBlock map[*analysis.FuncNode]*blockWitness) {
	for _, n := range prog.Nodes() {
		for _, c := range facts[n].calls {
			mu := c.held.anyHeld()
			if mu == "" {
				continue
			}
			for _, callee := range c.callees {
				w := transBlock[callee]
				if w == nil {
					continue
				}
				chain := fmt.Sprintf("%s (%s)", callee.Name(), r.Pos(c.pos))
				if len(w.chain) > 0 {
					chain += " -> " + strings.Join(w.chain, " -> ")
				}
				kind := "call"
				if c.dynamic {
					kind = "dynamic call"
				}
				r.Reportf(c.pos, "%s while %s is held reaches %s at %s (via %s)", kind, mu, w.desc, r.Pos(w.pos), chain)
				break // one witness per call site
			}
		}
	}
}

// reportCycles builds the global lock-order graph and reports its cycles.
func (lo *LockOrder) reportCycles(r *analysis.Reporter, prog *analysis.Program, facts map[*analysis.FuncNode]*lockFacts, transAcq map[*analysis.FuncNode]map[string]token.Pos) {
	// One representative edge per (from, to) pair, first in node order.
	edges := map[[2]string]orderEdge{}
	addEdge := func(e orderEdge) {
		k := [2]string{e.from, e.to}
		if _, ok := edges[k]; !ok {
			edges[k] = e
		}
	}
	for _, n := range prog.Nodes() {
		f := facts[n]
		for _, a := range f.acquires {
			for held := range a.held {
				addEdge(orderEdge{from: held, to: a.key, pos: a.pos})
			}
		}
		for _, c := range f.calls {
			if len(c.held) == 0 {
				continue
			}
			for _, callee := range c.callees {
				for acq := range transAcq[callee] {
					for held := range c.held {
						addEdge(orderEdge{from: held, to: acq, pos: c.pos, via: callee.Name()})
					}
				}
			}
		}
	}

	// Tarjan over the lock-class graph.
	keys := make([]string, 0, len(edges)*2)
	seen := map[string]bool{}
	for k := range edges {
		for _, s := range []string{k[0], k[1]} {
			if !seen[s] {
				seen[s] = true
				keys = append(keys, s)
			}
		}
	}
	sort.Strings(keys)
	succ := map[string][]string{}
	for k := range edges {
		succ[k[0]] = append(succ[k[0]], k[1])
	}
	for _, s := range succ {
		sort.Strings(s)
	}
	sccs := stringSCCs(keys, succ)

	for _, scc := range sccs {
		inSCC := map[string]bool{}
		for _, k := range scc {
			inSCC[k] = true
		}
		var cyc []orderEdge
		for k, e := range edges {
			if inSCC[k[0]] && inSCC[k[1]] && (len(scc) > 1 || k[0] == k[1]) {
				cyc = append(cyc, e)
			}
		}
		if len(cyc) == 0 {
			continue
		}
		sort.Slice(cyc, func(i, j int) bool {
			if cyc[i].from != cyc[j].from {
				return cyc[i].from < cyc[j].from
			}
			return cyc[i].to < cyc[j].to
		})
		parts := make([]string, len(cyc))
		for i, e := range cyc {
			w := r.Pos(e.pos)
			if e.via != "" {
				w += " via " + e.via
			}
			parts[i] = fmt.Sprintf("%s -> %s (%s)", e.from, e.to, w)
		}
		if len(cyc) == 1 && cyc[0].from == cyc[0].to {
			r.Reportf(cyc[0].pos, "lock class %s is re-acquired while already held (%s): self-deadlock unless instances are address-ordered", cyc[0].from, parts[0])
			continue
		}
		r.Reportf(cyc[0].pos, "lock-order cycle between %d lock classes: %s: potential deadlock", len(scc), strings.Join(parts, ", "))
	}
}

// stringSCCs is Tarjan's algorithm over a string digraph, emitting components
// in reverse topological order; only components forming cycles matter to the
// caller.
func stringSCCs(keys []string, succ map[string][]string) [][]string {
	index := map[string]int{}
	lowlink := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	next := 1
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], lowlink[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if index[w] == 0 {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, v := range keys {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return out
}

// collect runs the flow-sensitive walker over one declaration, reporting
// direct blocking under a held lock and recording acquisitions, calls under
// held locks, and direct blocking operations.
func (lo *LockOrder) collect(n *analysis.FuncNode, r *analysis.Reporter) *lockFacts {
	f := &lockFacts{}
	pkg := n.Pkg
	w := &lockFlow{
		node: n,
		ev: lockEvents{
			onLock: func(call *ast.CallExpr, key string, held lockSet) {
				f.acquires = append(f.acquires, lockAcqFact{key: key, pos: call.Pos(), held: held.clone()})
			},
			onCall: func(call *ast.CallExpr, held lockSet) {
				if mu := held.anyHeld(); mu != "" {
					if desc := blockingCall(pkg.Info, call); desc != "" {
						r.Reportf(call.Pos(), "%s while %s is held blocks the critical section", desc, mu)
					}
				}
				callees, dynamic := lo.prog.ResolveCall(pkg, call)
				if len(callees) == 0 && len(held) == 0 {
					return
				}
				f.calls = append(f.calls, lockCallFact{
					pos: call.Pos(), held: held.clone(),
					callees: callees, dynamic: dynamic,
				})
			},
			onSend: func(arrow token.Pos, held lockSet) {
				if mu := held.anyHeld(); mu != "" {
					r.Reportf(arrow, "channel send while %s is held can block the critical section", mu)
				}
			},
		},
	}
	w.walk(n.Decl.Body)
	f.blocking = collectBlocking(pkg, n.Decl)
	return f
}

// lockKey computes the global lock-class key for a mutex owner expression
// locked inside n.
func lockKey(n *analysis.FuncNode, owner ast.Expr) string {
	pkg := n.Pkg
	switch e := ast.Unparen(owner).(type) {
	case *ast.SelectorExpr:
		// Field selection x.mu: key on the field's parent type. The
		// selection's receiver gives the concrete struct even through
		// pointers and embedded chains.
		if sel, ok := pkg.Info.Selections[e]; ok {
			if named := namedOf(sel.Recv()); named != nil {
				return typeKeyOf(named) + "." + e.Sel.Name
			}
		}
		// Package-qualified var otherpkg.Mu.
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			// An embedded mutex locked through its outer value (s.Lock()
			// arrives here with owner s): the outer named type is the class.
			if named := namedOf(v.Type()); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
				return typeKeyOf(named)
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			// Function-local mutex: scoped to its declaring function.
			return n.Name() + "." + v.Name()
		}
	}
	// Fallback: source rendering scoped to the function.
	return n.Name() + "." + types.ExprString(owner)
}

// namedOf unwraps pointers to the underlying named type, nil when t has none.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// typeKeyOf renders a named type as pkgpath.Name.
func typeKeyOf(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// collectBlocking records the directly blocking operations of a declaration:
// channel sends and receives, selects without a default, time.Sleep, os file
// I/O, and outbound http calls. Bodies of goroutines spawned with `go` are
// excluded — they do not block the spawning function.
func collectBlocking(pkg *analysis.Package, decl *ast.FuncDecl) []blockWitness {
	var out []blockWitness
	add := func(pos token.Pos, desc string) {
		out = append(out, blockWitness{desc: desc, pos: pos})
	}
	skip := map[ast.Node]bool{}
	ast.Inspect(decl.Body, func(nd ast.Node) bool {
		if skip[nd] {
			return false
		}
		switch nd := nd.(type) {
		case *ast.GoStmt:
			// Neither the spawned call nor a spawned literal body blocks the
			// caller.
			skip[nd.Call] = true
			if lit, ok := nd.Call.Fun.(*ast.FuncLit); ok {
				skip[lit] = true
			}
		case *ast.SendStmt:
			add(nd.Arrow, "channel send")
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW {
				add(nd.OpPos, "channel receive")
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range nd.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				add(nd.Select, "blocking select")
			}
			// The comm clauses are part of the select; don't double-report
			// their channel operations.
			for _, cl := range nd.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					skip[cc.Comm] = true
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[nd.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					add(nd.For, "range over channel")
				}
			}
		case *ast.CallExpr:
			if desc := blockingCall(pkg.Info, nd); desc != "" {
				add(nd.Pos(), desc)
			}
		}
		return true
	})
	return out
}

// osFileIOMethods are the os.File methods that reach the disk.
var osFileIOMethods = map[string]bool{
	"ReadAt": true, "WriteAt": true, "Read": true, "Write": true,
	"Sync": true, "Seek": true, "Truncate": true, "ReadFrom": true,
}

// blockingCall describes a call that blocks on something outside the
// process — time.Sleep, an os package function (file I/O), an os.File I/O
// method, or an outbound net/http call — or returns "" for any other call.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.Callee(info, call)
	if fn == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	switch path := pkgPath(fn); {
	case path == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case path == "os" && recv == nil:
		return "os." + fn.Name() + " file I/O"
	case path == "os" && osFileIOMethods[fn.Name()]:
		return "(*os.File)." + fn.Name() + " disk I/O"
	case isHTTPClient(fn):
		return "outbound http RPC (net/http." + fn.Name() + ")"
	}
	return ""
}
