package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// A declaration directive is a //rased:<name> line in a function's doc
// comment. It marks the function for the rule that claims <name>: a
// zero-alloc hot path, an audited page-write site, an RPC whose caller
// supplies the deadline, an error sink. The mark lives on the declaration it
// names, so renaming or deleting the function takes the mark with it. gofmt
// keeps such lines as the last lines of the doc comment and go doc hides
// them.
const directivePrefix = "//rased:"

// Claimer is implemented by analyzers that read a declaration directive;
// Directive returns the name after //rased:.
type Claimer interface {
	Directive() string
}

// directiveName returns the name of a //rased: comment and whether the
// comment is one.
func directiveName(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(rest, " ")
	return name, true
}

// HasDirective reports whether fd's doc comment carries //rased:<name>.
func HasDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if n, ok := directiveName(c.Text); ok && n == name {
			return true
		}
	}
	return false
}

// CheckDirectives reports the //rased: comments no rule reads: a name no
// analyzer in all claims (a typo such as //rased:hotpth), and a directive
// anywhere but a function's doc comment. Either would otherwise switch its
// check off without a word. Pass every shipped analyzer, not a -rules
// selection: a directive of a rule that is not running is still valid.
func CheckDirectives(fset *token.FileSet, pkgs []*Package, all []Analyzer, base string) []Finding {
	known := map[string]bool{}
	for _, a := range all {
		if c, ok := a.(Claimer); ok {
			known[c.Directive()] = true
		}
	}
	var out []Finding
	r := &Reporter{fset: fset, base: base, rule: "directive", out: &out}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			onFunc := map[*ast.Comment]bool{}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
					for _, c := range fd.Doc.List {
						onFunc[c] = true
					}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					name, ok := directiveName(c.Text)
					switch {
					case !ok:
					case !known[name]:
						r.Reportf(c.Pos(), "unknown directive //rased:%s: no rule claims it, so it checks nothing", name)
					case !onFunc[c]:
						r.Reportf(c.Pos(), "//rased:%s is read only from a function's doc comment; here it checks nothing", name)
					}
				}
			}
		}
	}
	return out
}
