package rules

import (
	"fmt"
	"go/ast"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"rased/internal/analysis"
)

// HotAlloc re-verifies the zero-allocation contract on every lint run by
// asking the compiler instead of a benchmark. A function marked
// //rased:hotpath in its doc comment is a benchmark-verified hot path that
// must not allocate per call; for each package holding one, the rule runs
// `go build -gcflags=-m` and diffs the escape-analysis diagnostics against
// the marked functions' line ranges. An allocation-class diagnostic (a value
// moved to heap, or a make/new/composite-literal/map/closure/string-
// conversion escaping) inside a marked function fails the lint — the
// allocation a benchmark would catch as allocs/op > 0, caught at build time.
//
// Interface boxing of fmt arguments ("... argument escapes to heap" and
// bare identifiers escaping at a call site) is not counted: the repo's hot
// functions keep fmt on error paths only, and boxing diagnostics would
// otherwise drown the signal the directive exists for.
//
// The diagnostics come from the build cache when nothing changed, so the
// per-package build adds milliseconds, not a full compile, to lint runs.
type HotAlloc struct{}

// NewHotAlloc returns the hotalloc analyzer.
func NewHotAlloc() *HotAlloc { return &HotAlloc{} }

// Name implements analysis.Analyzer.
func (*HotAlloc) Name() string { return "hotalloc" }

// Doc implements analysis.Analyzer.
func (*HotAlloc) Doc() string {
	return "//rased:hotpath functions (the zero-alloc hot paths) must produce no allocation-class escape diagnostics under go build -gcflags=-m"
}

// Directive implements analysis.Claimer.
func (*HotAlloc) Directive() string { return "hotpath" }

// Run implements analysis.Analyzer.
func (h *HotAlloc) Run(pass *analysis.Pass) error {
	// The marked declarations' file and line ranges.
	type span struct {
		name       string
		file       string
		start, end int
	}
	var spans []span
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && analysis.HasDirective(fd, "hotpath") {
				from, to := pass.Position(fd.Pos()), pass.Position(fd.End())
				spans = append(spans, span{name: fd.Name.Name, file: from.Filename, start: from.Line, end: to.Line})
			}
		}
	}
	if len(spans) == 0 {
		return nil
	}

	diags, err := escapeDiagnostics(pass.Pkg.Dir)
	if err != nil {
		return fmt.Errorf("hotalloc: %s: %w", pass.Pkg.Path, err)
	}
	for _, d := range diags {
		if !isAllocDiag(d.msg) {
			continue
		}
		abs := d.file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(pass.Pkg.Dir, abs)
		}
		for _, sp := range spans {
			if !sameFile(abs, sp.file) || d.line < sp.start || d.line > sp.end {
				continue
			}
			pos := pass.PosFor(abs, d.line, d.col)
			if !pos.IsValid() {
				pos = pass.Pkg.Files[0].Name.Pos()
			}
			pass.Reportf(pos, "%s is a //rased:hotpath zero-alloc function but the compiler reports %q; hoist the allocation or drop the directive with a benchmark justifying it", sp.name, d.msg)
			break
		}
	}
	return nil
}

// escapeDiag is one file:line:col diagnostic from the compiler's -m output.
type escapeDiag struct {
	file      string
	line, col int
	msg       string
}

// escapeDiagnostics builds the package in dir with -gcflags=-m and parses the
// diagnostics. The build reads from the build cache when the package is
// unchanged, replaying stored diagnostics.
func escapeDiagnostics(dir string) ([]escapeDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %w\n%s", err, out)
	}
	var diags []escapeDiag
	for _, line := range strings.Split(string(out), "\n") {
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
			continue
		}
		ln, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		file := strings.TrimPrefix(parts[0], "./")
		diags = append(diags, escapeDiag{file: file, line: ln, col: col, msg: strings.TrimSpace(parts[3])})
	}
	return diags, nil
}

// isAllocDiag classifies a -m diagnostic as a per-call heap allocation. The
// included shapes allocate backing store; the excluded ones are interface
// boxing at call sites (fmt arguments on error paths) and inlining remarks.
func isAllocDiag(msg string) bool {
	if strings.HasPrefix(msg, "moved to heap:") {
		return true
	}
	subject, ok := strings.CutSuffix(msg, " escapes to heap")
	if !ok {
		return false
	}
	if strings.HasSuffix(subject, " argument") { // "... argument escapes to heap"
		return false
	}
	for _, p := range []string{"make(", "new(", "&", "[]", "map[", "func literal", "string(", "[", "append("} {
		if strings.HasPrefix(subject, p) {
			return true
		}
	}
	// Composite literals print as "T{...}" / "T literal".
	return strings.Contains(subject, "{") || strings.HasSuffix(subject, " literal")
}

// sameFile compares two paths after Abs-normalization.
func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}
