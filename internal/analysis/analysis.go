// Package analysis is RASED's in-tree static-analysis framework. PR 1 (obs)
// and PR 2 (exec) introduced cross-cutting invariants — context flows
// end-to-end through the query path, no disk I/O or sleeps while a mutex is
// held, every obs instrument registered under a unique name — that are
// documented in DESIGN.md but trivially lost to a careless edit. This package
// turns those prose rules into machine-checked ones: a rule interface over
// go/ast + go/types, a module loader (stdlib-only, matching the repo's
// zero-dependency go.mod), a whole-program call graph, position-accurate
// findings, and //rased: declaration directives (directive.go) through which
// a function opts into or out of a rule. There is no allowlist: a finding is
// fixed in code.
//
// The shipped rules live in the rules subpackage; cmd/rased-lint is the
// driver that gates every build via `make lint` (part of `make check`).
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// Finding is one rule violation at a source position. File is slash-separated
// and relative to the module root when the position is inside the module.
type Finding struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Analyzer is one lint rule. Run is called once per loaded package; analyzers
// that also need a whole-program view (cross-package uniqueness, for example)
// additionally implement Finisher.
type Analyzer interface {
	// Name is the stable rule ID used in findings and -rules.
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// Run inspects one type-checked package, reporting violations via pass.
	Run(pass *Pass) error
}

// Finisher is implemented by analyzers that accumulate state across packages
// and report after every package has been visited.
type Finisher interface {
	Finish(r *Reporter) error
}

// Pass carries one package through one analyzer, with a Reporter bound to the
// analyzer's rule ID. Prog is the whole-program call graph shared by every
// pass of one Run — the interprocedural rules (lockorder, errsurface) compute
// bottom-up summaries over its SCCs instead of re-walking the tree.
type Pass struct {
	*Reporter
	Pkg  *Package
	Prog *Program
}

// Reporter converts token positions to findings for one rule.
type Reporter struct {
	fset *token.FileSet
	base string // module root for relative paths ("" keeps them absolute)
	rule string
	out  *[]Finding
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.fset.Position(pos)
	*r.out = append(*r.out, Finding{
		Rule: r.rule, File: r.relFile(p.Filename), Line: p.Line, Col: p.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Pos renders a position as a module-relative "file:line" string for use
// inside finding messages (witness chains, cycle paths).
func (r *Reporter) Pos(pos token.Pos) string {
	p := r.fset.Position(pos)
	return fmt.Sprintf("%s:%d", r.relFile(p.Filename), p.Line)
}

// Position exposes the full resolved position of pos, for rules that
// correlate findings with external tool output (hotalloc diffs compiler
// escape diagnostics against declaration line ranges).
func (r *Reporter) Position(pos token.Pos) token.Position {
	return r.fset.Position(pos)
}

// PosFor maps a (file, line, column) triple — typically parsed from external
// tool output — back to a token.Pos inside the loaded file set, so findings
// can anchor at the exact source location the tool named. Returns NoPos when
// the file is not loaded or the line is out of range. Paths are compared
// after Abs-normalization: tool output is often relative to some working
// directory while loaded files may be absolute (or vice versa).
func (r *Reporter) PosFor(file string, line, col int) token.Pos {
	want, err := filepath.Abs(file)
	if err != nil {
		return token.NoPos
	}
	var out token.Pos
	r.fset.Iterate(func(f *token.File) bool {
		got, err := filepath.Abs(f.Name())
		if err != nil || got != want {
			return true
		}
		if line >= 1 && line <= f.LineCount() {
			out = f.LineStart(line)
			if col > 1 {
				out += token.Pos(col - 1)
			}
		}
		return false
	})
	return out
}

// relFile relativizes a file path against the module root when possible.
func (r *Reporter) relFile(file string) string {
	if r.base != "" {
		if rel, err := filepath.Rel(r.base, file); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return file
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

// Run applies every analyzer to every package, then invokes Finish on the
// analyzers that implement it, and returns the findings sorted by position
// then rule. base is the module root used to relativize file paths.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []Analyzer, base string) ([]Finding, error) {
	var out []Finding
	prog := NewProgram(fset, pkgs)
	for _, a := range analyzers {
		rep := &Reporter{fset: fset, base: base, rule: a.Name(), out: &out}
		for _, pkg := range pkgs {
			if err := a.Run(&Pass{Reporter: rep, Pkg: pkg, Prog: prog}); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name(), pkg.Path, err)
			}
		}
		if fin, ok := a.(Finisher); ok {
			if err := fin.Finish(rep); err != nil {
				return nil, fmt.Errorf("analysis: %s finish: %w", a.Name(), err)
			}
		}
	}
	Sort(out)
	return out, nil
}

// Sort orders findings by file, line, column, rule, message — the stable
// order rased-lint prints them in.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
