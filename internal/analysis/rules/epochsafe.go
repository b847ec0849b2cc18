package rules

import (
	"go/ast"

	"rased/internal/analysis"
)

// epochsafePkg is the package bound by the epoch immutability rule: the
// temporal index, which owns every page the directory can reach.
const epochsafePkg = "rased/internal/tindex"

// pageWrites are the page-store methods that write cube pages or extents.
var pageWrites = map[string]bool{"WritePage": true, "Append": true, "WriteExtent": true, "AppendExtent": true}

// Epochsafe enforces the live-ingest copy-on-write contract: a published
// page is immutable, so the only code allowed to call WritePage, Append,
// WriteExtent, or AppendExtent on a page store is the audited set of swap
// sites — the batch write path (no concurrent readers by contract) and the
// scratch-staging paths (target pages and extents unreachable from the
// directory until the epoch swap). Each such function carries
// //rased:pagewrite in its doc comment; a page write anywhere else in tindex
// is a finding. A new page-writing helper therefore cannot land without a
// reviewable directive arguing why it cannot clobber a published page.
type Epochsafe struct{}

// NewEpochsafe returns the epochsafe analyzer.
func NewEpochsafe() *Epochsafe { return &Epochsafe{} }

// Name implements analysis.Analyzer.
func (*Epochsafe) Name() string { return "epochsafe" }

// Doc implements analysis.Analyzer.
func (*Epochsafe) Doc() string {
	return "published cube pages are immutable: tindex calls WritePage/Append/WriteExtent/AppendExtent only from //rased:pagewrite functions"
}

// Directive implements analysis.Claimer.
func (*Epochsafe) Directive() string { return "pagewrite" }

// Run implements analysis.Analyzer. The builtin append never matches (it is
// an *ast.Ident, not a selector).
func (*Epochsafe) Run(pass *analysis.Pass) error {
	if pass.Pkg.Path != epochsafePkg {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || analysis.HasDirective(fd, "pagewrite") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && pageWrites[sel.Sel.Name] {
						pass.Reportf(call.Pos(), "%s calls %s outside the audited swap sites; published pages are immutable — route the write through a //rased:pagewrite function", fd.Name.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	return nil
}
