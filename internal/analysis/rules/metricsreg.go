package rules

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"rased/internal/analysis"
)

// MetricsReg enforces PR 1's instrument-wiring discipline so /metrics never
// silently drops a series:
//
//   - every obs.NewCounter/NewGauge/NewGaugeFunc/NewHistogram name is a
//     constant string, matches the Prometheus naming charset, and carries the
//     repo's rased_ prefix;
//   - no two construction sites produce the same series identity (name plus
//     label arguments): a second identical site is either a copy-paste bug
//     or a registry panic waiting for the first scrape. Sites sharing a name
//     but constructing distinct label sets (crawl's reason label, the
//     cache's per-level counters) are one metric family, which is fine;
//   - a constructed instrument must flow somewhere a registry can see it:
//     directly into Register/MustRegister, or bound to a variable or field
//     that is later registered, returned, or appended by a wiring accessor
//     (the Metrics.All() pattern). An instrument that is constructed and
//     dropped is a dead series.
//
// Series uniqueness is checked across every package in the run (Finish).
type MetricsReg struct {
	sites map[string][]metricSite // name+labels identity -> construction sites
}

type metricSite struct {
	name string
	pos  token.Pos
}

// NewMetricsReg returns a metricsreg analyzer with empty cross-package state.
func NewMetricsReg() *MetricsReg { return &MetricsReg{sites: make(map[string][]metricSite)} }

// Name implements analysis.Analyzer.
func (*MetricsReg) Name() string { return "metricsreg" }

// Doc implements analysis.Analyzer.
func (*MetricsReg) Doc() string {
	return "obs instruments use unique constant rased_* names and must reach a registry or wiring accessor"
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// obsConstructors are the instrument-constructing functions of internal/obs.
var obsConstructors = map[string]bool{
	"NewCounter": true, "NewGauge": true, "NewGaugeFunc": true, "NewHistogram": true,
}

// registerFuncs accept instruments for export.
var registerFuncs = map[string]bool{"Register": true, "MustRegister": true}

// Run implements analysis.Analyzer.
func (m *MetricsReg) Run(pass *analysis.Pass) error {
	info := pass.Pkg.Info
	parents := make(map[ast.Node]ast.Node)
	var constructs []*ast.CallExpr
	exposed := make(map[string]bool) // names visible to registration/wiring
	var flows []exposureFlow         // assignments propagating exposure transitively

	for _, f := range pass.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := analysis.Callee(info, n); fn != nil {
					if fn.Pkg() != nil && fn.Pkg().Name() == "obs" && obsConstructors[fn.Name()] {
						constructs = append(constructs, n)
					}
					if registerFuncs[fn.Name()] {
						for _, arg := range n.Args {
							collectNames(arg, exposed)
						}
					}
				} else if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
					// The wiring-accessor idiom builds its result with
					// append(out, m.Hits[i], ...) before returning it.
					for _, arg := range n.Args[1:] {
						collectNames(arg, exposed)
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					collectNames(res, exposed)
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) {
						if name := bindingName(n.Lhs[i]); name != "" {
							flows = append(flows, exposureFlow{to: name, from: rhs})
						}
					}
				}
			case *ast.ValueSpec:
				for i, rhs := range n.Values {
					if i < len(n.Names) {
						flows = append(flows, exposureFlow{to: n.Names[i].Name, from: rhs})
					}
				}
			}
			return true
		})
	}

	// Exposure is transitive through local bindings: in the Metrics.All()
	// idiom `out := []obs.Metric{m.Hits, ...}; return out`, returning out
	// exposes everything assigned into it. Iterate to a fixpoint (bindings
	// can chain).
	for changed := true; changed; {
		changed = false
		before := len(exposed)
		for _, fl := range flows {
			if exposed[fl.to] {
				collectNames(fl.from, exposed)
			}
		}
		changed = len(exposed) != before
	}

	for _, call := range constructs {
		m.checkConstruct(pass, call, parents, exposed)
	}
	return nil
}

// exposureFlow is one assignment edge for the transitive-exposure fixpoint.
type exposureFlow struct {
	to   string
	from ast.Expr
}

// bindingName extracts the simple binding a value is assigned into: a plain
// identifier or the final selector field (index expressions unwrapped).
func bindingName(lhs ast.Expr) string {
	e := ast.Unparen(lhs)
	for {
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(ix.X)
			continue
		}
		break
	}
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// checkConstruct validates one instrument construction site.
func (m *MetricsReg) checkConstruct(pass *analysis.Pass, call *ast.CallExpr, parents map[ast.Node]ast.Node, exposed map[string]bool) {
	fn := analysis.Callee(pass.Pkg.Info, call)
	name := constantStringArg(pass, call)
	if name != "" {
		if !metricNameRE.MatchString(name) {
			pass.Reportf(call.Pos(), "metric name %q does not match the Prometheus naming charset [a-z][a-z0-9_]*", name)
		} else if len(name) < 6 || name[:6] != "rased_" {
			pass.Reportf(call.Pos(), "metric name %q lacks the rased_ prefix every exported series carries", name)
		}
		id := name + "|" + labelKey(fn.Name(), call)
		m.sites[id] = append(m.sites[id], metricSite{name: name, pos: call.Pos()})
	}

	// Follow the construction value upward to where it lands.
	var child ast.Node = call
	for parent := parents[child]; parent != nil; child, parent = parent, parents[parent] {
		switch p := parent.(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "%s result is discarded: the instrument can never be registered", fn.Name())
			return
		case *ast.CallExpr:
			if rf := analysis.Callee(pass.Pkg.Info, p); rf != nil && registerFuncs[rf.Name()] {
				return // passed straight into Register/MustRegister
			}
		case *ast.ReturnStmt:
			return // returned to the caller's wiring
		case *ast.KeyValueExpr:
			if key, ok := p.Key.(*ast.Ident); ok && p.Value == child {
				m.requireExposed(pass, call, fn.Name(), key.Name, exposed)
				return
			}
		case *ast.AssignStmt:
			m.requireExposed(pass, call, fn.Name(), assignTarget(p, child), exposed)
			return
		case *ast.ValueSpec:
			for i, v := range p.Values {
				if v == child && i < len(p.Names) {
					m.requireExposed(pass, call, fn.Name(), p.Names[i].Name, exposed)
					return
				}
			}
			return
		case *ast.BlockStmt, *ast.FuncDecl, *ast.FuncLit:
			return
		}
	}
}

// requireExposed reports when the binding an instrument landed in never
// appears in a Register/MustRegister call or a return statement.
func (m *MetricsReg) requireExposed(pass *analysis.Pass, call *ast.CallExpr, ctor, binding string, exposed map[string]bool) {
	if binding == "" || binding == "_" {
		pass.Reportf(call.Pos(), "%s result is discarded: the instrument can never be registered", ctor)
		return
	}
	if !exposed[binding] {
		pass.Reportf(call.Pos(), "instrument bound to %q is never registered or returned for registry wiring (dead series)", binding)
	}
}

// assignTarget finds the name assigned from value in an assignment: a plain
// identifier or the final selector field.
func assignTarget(as *ast.AssignStmt, value ast.Node) string {
	idx := -1
	for i, rhs := range as.Rhs {
		if rhs == value {
			idx = i
		}
	}
	if idx < 0 || idx >= len(as.Lhs) {
		if len(as.Rhs) == 1 && len(as.Lhs) == 1 {
			idx = 0
		} else {
			return ""
		}
	}
	lhs := ast.Unparen(as.Lhs[idx])
	for {
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			lhs = ast.Unparen(ix.X) // m.Hits[i] = ... binds the Hits field
			continue
		}
		break
	}
	switch lhs := lhs.(type) {
	case *ast.Ident:
		return lhs.Name
	case *ast.SelectorExpr:
		return lhs.Sel.Name
	}
	return ""
}

// collectNames records every identifier and selector field mentioned in the
// expression — the names considered "visible to wiring". Composite-literal
// keys are skipped: `return &Metrics{Orphan: obs.NewCounter(...)}` constructs
// Orphan, it does not wire it anywhere.
func collectNames(e ast.Expr, out map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			collectNames(n.Value, out)
			return false
		case *ast.Ident:
			out[n.Name] = true
		case *ast.SelectorExpr:
			out[n.Sel.Name] = true
		}
		return true
	})
}

// constantStringArg evaluates the call's first argument as a constant string,
// reporting when it is not one (uniqueness cannot be audited otherwise).
func constantStringArg(pass *analysis.Pass, call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	tv, ok := pass.Pkg.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(call.Pos(), "metric name is not a constant string: uniqueness cannot be checked statically")
		return ""
	}
	return constant.StringVal(tv.Value)
}

// labelKey renders a construction's label arguments: everything after the
// constructor's fixed parameters (name, help, and NewGaugeFunc's fn /
// NewHistogram's bounds).
func labelKey(ctor string, call *ast.CallExpr) string {
	start := 2
	if ctor == "NewGaugeFunc" || ctor == "NewHistogram" {
		start = 3
	}
	if len(call.Args) <= start {
		return ""
	}
	parts := make([]string, 0, len(call.Args)-start)
	for _, arg := range call.Args[start:] {
		parts = append(parts, types.ExprString(arg))
	}
	return strings.Join(parts, ",")
}

// Finish implements analysis.Finisher: after every package has contributed
// its construction sites, duplicate series identities across the whole run
// are reported at each site beyond the first.
func (m *MetricsReg) Finish(r *analysis.Reporter) error {
	for _, sites := range m.sites {
		if len(sites) < 2 {
			continue
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		for _, s := range sites[1:] {
			r.Reportf(s.pos, "metric name %q is already constructed elsewhere with the same labels; series identities must be unique per construction site", s.name)
		}
	}
	return nil
}
