// Command rased-lint runs RASED's project-specific static analysis: the
// rules that keep PR 1's observability wiring and PR 2's concurrency
// contract true as the tree evolves (see DESIGN.md "Enforced invariants"),
// plus the check that every //rased: directive is one a rule reads.
//
// Usage:
//
//	rased-lint [flags] [package-prefix ...]
//
// With no arguments the whole module is checked. Arguments narrow the run to
// packages whose import path matches the prefix ("./..." and module-relative
// forms like ./internal/core are accepted).
//
// There is no allowlist: a finding is fixed in code. Exit status: 0 clean,
// 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rased/internal/analysis"
	"rased/internal/analysis/rules"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		rootFlag = flag.String("C", "", "module root to lint (default: nearest go.mod above the working directory)")
		ruleFlag = flag.String("rules", "", "comma-separated rule IDs to run (default: all; //rased: directives are always checked)")
		list     = flag.Bool("list", false, "list the available rules and exit")
	)
	flag.Parse()

	analyzers := rules.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *ruleFlag != "" {
		want := make(map[string]bool)
		for _, r := range strings.Split(*ruleFlag, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var kept []analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name()] {
				kept = append(kept, a)
				delete(want, a.Name())
			}
		}
		for r := range want {
			fmt.Fprintf(os.Stderr, "rased-lint: unknown rule %q (use -list)\n", r)
			return 2
		}
		analyzers = kept
	}

	root := *rootFlag
	if root == "" {
		var err error
		if root, err = findModuleRoot(); err != nil {
			fmt.Fprintf(os.Stderr, "rased-lint: %v\n", err)
			return 2
		}
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rased-lint: %v\n", err)
		return 2
	}
	pkgs, err := loadSelected(loader, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "rased-lint: %v\n", err)
		return 2
	}

	findings, err := analysis.Run(loader.Fset(), pkgs, analyzers, root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rased-lint: %v\n", err)
		return 2
	}
	// Directives are checked against every rule, not the -rules selection.
	findings = append(findings, analysis.CheckDirectives(loader.Fset(), pkgs, rules.All(), root)...)
	analysis.Sort(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rased-lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory (use -C)")
		}
		dir = parent
	}
}

// loadSelected loads the module packages matching the argument prefixes (all
// packages for no arguments or "./...").
func loadSelected(loader *analysis.Loader, args []string) ([]*analysis.Package, error) {
	var prefixes []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			prefixes = nil
			break
		}
		arg = strings.TrimSuffix(arg, "/...")
		arg = strings.TrimPrefix(arg, "./")
		arg = strings.TrimSuffix(arg, "/")
		if arg == "." || arg == "" {
			prefixes = nil
			break
		}
		if !strings.HasPrefix(arg, loader.ModulePath) {
			arg = loader.ModulePath + "/" + arg
		}
		prefixes = append(prefixes, arg)
	}
	if len(prefixes) == 0 {
		return loader.LoadAll()
	}
	var out []*analysis.Package
	for _, ip := range loader.Packages() {
		for _, p := range prefixes {
			if ip == p || strings.HasPrefix(ip, p+"/") {
				pkg, err := loader.Load(ip)
				if err != nil {
					return nil, err
				}
				out = append(out, pkg)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packages match %v", args)
	}
	return out, nil
}
