package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

func TestExpectations(t *testing.T) {
	src := `package p

func f() {
	g() // want "first" "second"
	h() // plain comment
}

//rased:x // want "third"
func k() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Expectations(fset, []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 2 || ex[0].Line != 4 || !reflect.DeepEqual(ex[0].Want, []string{"first", "second"}) ||
		ex[1].Line != 8 || !reflect.DeepEqual(ex[1].Want, []string{"third"}) {
		t.Fatalf("expectations = %+v", ex)
	}
	ex = ex[:1]
	problems := CheckExpectations(ex, []Finding{{File: "p.go", Line: 4, Message: "has first and second inside"}})
	if len(problems) != 0 {
		t.Errorf("clean match reported problems: %v", problems)
	}
	problems = CheckExpectations(ex, []Finding{{File: "p.go", Line: 9, Message: "stray"}})
	if len(problems) != 3 { // two missing wants + one unexpected finding
		t.Errorf("got %d problems, want 3: %v", len(problems), problems)
	}
}

func TestSortFindings(t *testing.T) {
	fs := []Finding{
		{File: "b.go", Line: 1, Col: 1, Rule: "x"},
		{File: "a.go", Line: 9, Col: 2, Rule: "x"},
		{File: "a.go", Line: 9, Col: 1, Rule: "y"},
		{File: "a.go", Line: 2, Col: 5, Rule: "x"},
	}
	Sort(fs)
	want := []string{"a.go:2", "a.go:9", "a.go:9", "b.go:1"}
	for i, f := range fs {
		if got := f.File + ":" + itoa(f.Line); got != want[i] {
			t.Errorf("pos %d = %s, want %s", i, got, want[i])
		}
	}
	if fs[1].Col != 1 || fs[2].Col != 2 {
		t.Errorf("column tiebreak wrong: %+v", fs[1:3])
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestLoaderModulePackage smoke-tests the module loader end to end on a real
// package: obs has no module-internal deps and type-checks quickly.
func TestLoaderModulePackage(t *testing.T) {
	root := findRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("rased/internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "obs" || len(pkg.Files) == 0 || len(pkg.Info.Uses) == 0 {
		t.Fatalf("obs loaded without type info: %+v", pkg)
	}
	if _, err := l.Load("rased/not/there"); err == nil {
		t.Error("unknown import path should fail")
	}
}

func findRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found")
		}
		dir = parent
	}
}
