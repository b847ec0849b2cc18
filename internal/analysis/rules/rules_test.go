package rules

import (
	"os"
	"path/filepath"
	"testing"

	"rased/internal/analysis"
)

// moduleRoot walks up from the test's working directory to the go.mod root.
func moduleRoot(t *testing.T) string {
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
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// fixturePaths maps each shipped analyzer to the import path its fixture
// package is loaded under. Determinism's fixture must be loaded as one of the
// default pure packages — the rule only looks at those.
var fixturePaths = map[string]string{
	"ctxflow":     "fix/ctxflow",
	"metricsreg":  "fix/metricsreg",
	"errwrap":     "fix/errwrap",
	"determinism": "rased/internal/plan",
	"poolsafe":    "fix/poolsafe",
	"epochsafe":   "rased/internal/tindex",
	"rpcdeadline": "rased/internal/cluster",
	"lockorder":   "fix/lockorder",
	"errsurface":  "fix/errsurface",
	"hotalloc":    "fix/hotalloc",
	"lockio":      "fix/lockio",
	"faultpath":   "fix/faultpath",
}

// foldedFixtures names the fixtures of rules that were folded into another
// analyzer, and the analyzer that now enforces their invariant.
var foldedFixtures = []struct{ fixture, rule string }{
	{"lockio", "lockorder"},  // blocking work directly under a held lock
	{"faultpath", "ctxflow"}, // a sleeping loop that ignores ctx
}

// loadFixture type-checks testdata/src/<name> under the mapped import path
// with a fresh loader.
func loadFixture(t *testing.T, name string) (*analysis.Loader, *analysis.Package) {
	t.Helper()
	return loadFixtureAs(t, name, fixturePaths[name])
}

func loadFixtureAs(t *testing.T, name, path string) (*analysis.Loader, *analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := loader.LoadDir(dir, path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return loader, pkg
}

// TestAnalyzersAgainstFixtures runs every shipped analyzer over its seeded
// fixture, and each folded fixture under the analyzer that absorbed it, and
// diffs the findings against the fixture's want annotations: every seeded
// violation must fire, and nothing else may.
func TestAnalyzersAgainstFixtures(t *testing.T) {
	byName := map[string]analysis.Analyzer{}
	for _, a := range All() {
		byName[a.Name()] = a
		a := a
		t.Run(a.Name(), func(t *testing.T) { checkFixture(t, a.Name(), a) })
	}
	for _, ff := range foldedFixtures {
		a, ok := byName[ff.rule]
		if !ok {
			t.Fatalf("folded fixture %s names unknown rule %s", ff.fixture, ff.rule)
		}
		ff := ff
		t.Run(ff.fixture, func(t *testing.T) { checkFixture(t, ff.fixture, a) })
	}
}

func checkFixture(t *testing.T, fixture string, a analysis.Analyzer) {
	t.Helper()
	loader, pkg := loadFixture(t, fixture)
	findings, err := analysis.Run(loader.Fset(), []*analysis.Package{pkg}, []analysis.Analyzer{a}, "")
	if err != nil {
		t.Fatal(err)
	}
	expects, err := analysis.Expectations(loader.Fset(), pkg.Files)
	if err != nil {
		t.Fatal(err)
	}
	if len(expects) == 0 {
		t.Fatalf("fixture %s has no want annotations", fixture)
	}
	for _, p := range analysis.CheckExpectations(expects, findings) {
		t.Error(p)
	}
}

// TestAnalyzerMetadata is the meta-test from the issue: each shipped analyzer
// carries its documented rule ID, has a doc line, fires at least once on its
// fixture, and attributes every finding to its own rule ID.
func TestAnalyzerMetadata(t *testing.T) {
	wantIDs := []string{"ctxflow", "metricsreg", "errwrap", "determinism", "poolsafe", "epochsafe", "rpcdeadline", "lockorder", "errsurface", "hotalloc"}
	all := All()
	if len(all) != len(wantIDs) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(wantIDs))
	}
	for i, a := range all {
		if a.Name() != wantIDs[i] {
			t.Errorf("analyzer %d: Name() = %q, want %q", i, a.Name(), wantIDs[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %s: empty Doc()", a.Name())
		}
		loader, pkg := loadFixture(t, a.Name())
		findings, err := analysis.Run(loader.Fset(), []*analysis.Package{pkg}, []analysis.Analyzer{a}, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) == 0 {
			t.Errorf("analyzer %s reported nothing on its fixture", a.Name())
		}
		for _, f := range findings {
			if f.Rule != a.Name() {
				t.Errorf("analyzer %s reported finding under rule ID %q", a.Name(), f.Rule)
			}
			if f.Line <= 0 || f.Col <= 0 {
				t.Errorf("analyzer %s: finding without a position: %s", a.Name(), f)
			}
		}
	}
}

// TestDirectives pins the guard that replaced stale-registry detection: a
// //rased: name no shipped analyzer claims, and a directive outside a
// function's doc comment, are findings; claimed directives on functions are
// not.
func TestDirectives(t *testing.T) {
	loader, pkg := loadFixtureAs(t, "directive", "fix/directive")
	findings := analysis.CheckDirectives(loader.Fset(), []*analysis.Package{pkg}, All(), "")
	expects, err := analysis.Expectations(loader.Fset(), pkg.Files)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range analysis.CheckExpectations(expects, findings) {
		t.Error(p)
	}
}

// TestFreshInstances guards the per-run state contract: two All() sets must
// not share accumulator state (metricsreg counts construction sites).
func TestFreshInstances(t *testing.T) {
	loader, pkg := loadFixture(t, "metricsreg")
	for round := 0; round < 2; round++ {
		var mr analysis.Analyzer
		for _, a := range All() {
			if a.Name() == "metricsreg" {
				mr = a
			}
		}
		findings, err := analysis.Run(loader.Fset(), []*analysis.Package{pkg}, []analysis.Analyzer{mr}, "")
		if err != nil {
			t.Fatal(err)
		}
		var dups int
		for _, f := range findings {
			if f.Rule == "metricsreg" {
				dups++
			}
		}
		if round == 1 && dups == 0 {
			t.Error("second run reported nothing: analyzer state leaked across All() sets")
		}
	}
}
