package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

// loadCallgraphFixture type-checks testdata/src/callgraph and builds its
// whole-program call graph.
func loadCallgraphFixture(t *testing.T) (*Program, *Package) {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "callgraph"), "fix/callgraph")
	if err != nil {
		t.Fatal(err)
	}
	return NewProgram(loader.Fset(), []*Package{pkg}), pkg
}

// mustNode resolves a declaration name ("Func", "(*T).Method") or fails the
// test.
func mustNode(t *testing.T, prog *Program, pkg *Package, name string) *FuncNode {
	t.Helper()
	for _, n := range prog.Nodes() {
		if n.Pkg == pkg && n.DeclName() == name {
			return n
		}
	}
	t.Fatalf("no node %q", name)
	return nil
}

// siteFor finds the call site in n whose callee expression is the plain
// identifier name.
func siteFor(t *testing.T, n *FuncNode, name string) *CallSite {
	t.Helper()
	for _, cs := range n.Calls {
		if id, ok := cs.Call.Fun.(*ast.Ident); ok && id.Name == name {
			return cs
		}
	}
	t.Fatalf("%s has no call site %q", n.Name(), name)
	return nil
}

func sccIndexOf(t *testing.T, prog *Program, n *FuncNode) int {
	t.Helper()
	for i, scc := range prog.SCCs() {
		for _, m := range scc {
			if m == n {
				return i
			}
		}
	}
	t.Fatalf("%s is in no SCC", n.Name())
	return -1
}

func TestCallGraphRecursion(t *testing.T) {
	prog, pkg := loadCallgraphFixture(t)

	fact := mustNode(t, prog, pkg, "fact")
	if scc := prog.SCCs()[sccIndexOf(t, prog, fact)]; len(scc) != 1 {
		t.Errorf("fact's SCC = %v, want the one-node component", scc)
	}
	if cs := siteFor(t, fact, "fact"); len(cs.Callees) != 1 || cs.Callees[0] != fact {
		t.Errorf("fact's self call resolves to %v, want fact", cs.Callees)
	}

	isEven := mustNode(t, prog, pkg, "isEven")
	isOdd := mustNode(t, prog, pkg, "isOdd")
	i := sccIndexOf(t, prog, isEven)
	if scc := prog.SCCs()[i]; len(scc) != 2 {
		t.Fatalf("isEven's SCC has %d nodes, want 2", len(scc))
	}
	if sccIndexOf(t, prog, isOdd) != i {
		t.Error("isEven and isOdd are in different SCCs")
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog, pkg := loadCallgraphFixture(t)

	flushAll := mustNode(t, prog, pkg, "flushAll")
	var dyn *CallSite
	for _, cs := range flushAll.Calls {
		if cs.Dynamic {
			dyn = cs
			break
		}
	}
	if dyn == nil {
		t.Fatal("flushAll has no dynamic call site")
	}
	want := map[string]bool{"diskFlusher.flush": true, "(*memFlusher).flush": true}
	for _, c := range dyn.Callees {
		if !want[c.DeclName()] {
			t.Errorf("unexpected dynamic callee %s", c.Name())
		}
		delete(want, c.DeclName())
	}
	for name := range want {
		t.Errorf("dynamic call misses implementer %s", name)
	}
}

func TestCallGraphSiteKindsAndUnresolved(t *testing.T) {
	prog, pkg := loadCallgraphFixture(t)
	run := mustNode(t, prog, pkg, "run")

	if cs := siteFor(t, run, "spawned"); !cs.Go {
		t.Error("go spawned() not marked Go")
	}
	if cs := siteFor(t, run, "cleanup"); !cs.Deferred {
		t.Error("defer cleanup() not marked Deferred")
	}
	if cs := siteFor(t, run, "inLiteral"); !cs.InLiteral {
		t.Error("call inside func literal not marked InLiteral")
	}
	if cs := siteFor(t, run, "fact"); cs.Go || cs.Deferred || cs.InLiteral || cs.Dynamic {
		t.Errorf("plain call misflagged: %+v", cs)
	}
	// fn() where fn is a function-typed variable: recorded, but unresolved.
	if cs := siteFor(t, run, "fn"); len(cs.Callees) != 0 || cs.Dynamic {
		t.Errorf("function-value call should resolve to nothing, got %v", cs.Callees)
	}
}

func TestCallGraphBottomUpOrderAndReachability(t *testing.T) {
	prog, pkg := loadCallgraphFixture(t)
	run := mustNode(t, prog, pkg, "run")
	fact := mustNode(t, prog, pkg, "fact")
	isOdd := mustNode(t, prog, pkg, "isOdd")

	// SCCs come out callees-first: everything run calls precedes run.
	runIdx := sccIndexOf(t, prog, run)
	for _, callee := range []string{"fact", "isEven", "flushAll", "spawned", "cleanup", "apply"} {
		if i := sccIndexOf(t, prog, mustNode(t, prog, pkg, callee)); i >= runIdx {
			t.Errorf("SCC of %s at %d, not before run's at %d", callee, i, runIdx)
		}
	}

	// Reachability follows go statements, literals, and dynamic dispatch —
	// but not calls of plain function values.
	seen := map[*FuncNode]bool{run: true}
	for stack := []*FuncNode{run}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range n.calleeNodes() {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	for _, name := range []string{"fact", "isOdd", "spawned", "cleanup", "inLiteral", "diskFlusher.flush", "(*memFlusher).flush"} {
		if !seen[mustNode(t, prog, pkg, name)] {
			t.Errorf("%s not reachable from run", name)
		}
	}
	if seen[mustNode(t, prog, pkg, "unresolvedTarget")] {
		t.Error("unresolvedTarget reachable: function-value calls must stay unresolved")
	}
	if !seen[isOdd] || !seen[fact] {
		t.Error("recursive callees missing from closure")
	}
}
