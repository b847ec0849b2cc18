package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"rased/internal/analysis"
)

// ErrWrap requires fmt.Errorf calls that embed an error to wrap it with %w,
// keeping errors.Is/As chains (exec.ErrRejected through the server's 503
// mapping, context deadline classification) intact across package
// boundaries. Formatting an error with %v or %s severs the chain silently.
type ErrWrap struct{}

// NewErrWrap returns the errwrap analyzer.
func NewErrWrap() *ErrWrap { return &ErrWrap{} }

// Name implements analysis.Analyzer.
func (*ErrWrap) Name() string { return "errwrap" }

// Doc implements analysis.Analyzer.
func (*ErrWrap) Doc() string {
	return "fmt.Errorf with an error argument must wrap it with %w"
}

// Run implements analysis.Analyzer.
func (e *ErrWrap) Run(pass *analysis.Pass) error {
	info := pass.Pkg.Info
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(info, call)
			if fn == nil || pkgPath(fn) != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
				return true
			}
			format, ok := constString(info, call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true // a non-constant format cannot be checked statically
			}
			for _, arg := range call.Args[1:] {
				tv, ok := info.Types[arg]
				if !ok || tv.Type == nil {
					continue
				}
				if types.Implements(tv.Type, errIface) {
					pass.Reportf(call.Pos(), "fmt.Errorf formats an error without %%w, severing the errors.Is/As chain")
					break
				}
			}
			return true
		})
	}
	return nil
}
