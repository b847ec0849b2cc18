package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Expectation is one `// want "substring"` annotation in a fixture file: the
// named line must produce a finding whose message contains each substring.
// The annotation may also trail another line comment, as in
// `//rased:hotpth // want "unknown directive"`.
type Expectation struct {
	File string
	Line int
	Want []string
}

// Expectations extracts the `// want "a" "b"` annotations from the files.
// File names are reported as the position's full filename.
func Expectations(fset *token.FileSet, files []*ast.File) ([]Expectation, error) {
	var out []Expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					_, rest, ok = strings.Cut(text, "// want ")
				}
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				want, err := parseWants(rest)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %w", pos.Filename, pos.Line, err)
				}
				out = append(out, Expectation{File: pos.Filename, Line: pos.Line, Want: want})
			}
		}
	}
	return out, nil
}

// parseWants reads a sequence of Go-quoted strings.
func parseWants(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		if s[0] != '"' {
			return nil, fmt.Errorf("analysis: malformed want annotation near %q", s)
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("analysis: unterminated want string in %q", s)
		}
		w, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, fmt.Errorf("analysis: bad want string %q: %w", s[:end+1], err)
		}
		out = append(out, w)
		s = s[end+1:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: want annotation with no strings")
	}
	return out, nil
}

// CheckExpectations diffs findings against want annotations: every expected
// substring must match a finding on its line, and every finding must be
// covered by some annotation on its line. Findings' File values must use the
// same form as the expectations' (both come from the same FileSet when the
// Reporter's base is left empty). The returned problems are empty on success.
func CheckExpectations(expects []Expectation, findings []Finding) []string {
	var problems []string
	matched := make([]bool, len(findings))
	for _, e := range expects {
		for _, w := range e.Want {
			ok := false
			for i, f := range findings {
				if f.File == e.File && f.Line == e.Line && strings.Contains(f.Message, w) {
					matched[i] = true
					ok = true
					break
				}
			}
			if !ok {
				problems = append(problems, fmt.Sprintf("%s:%d: expected a finding containing %q, got none", e.File, e.Line, w))
			}
		}
	}
	for i, f := range findings {
		if !matched[i] {
			problems = append(problems, fmt.Sprintf("%s:%d: unexpected finding: %s", f.File, f.Line, f.Message))
		}
	}
	return problems
}
