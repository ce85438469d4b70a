// Package lint implements exdralint, the project-specific static-analysis
// pass for the ExDRa federated runtime. It is built only on the standard
// library (go/ast, go/parser, go/token, go/types) and enforces invariants
// that stock tooling (go vet) does not know about: connection deadlines in
// the federated protocol, panic-free library code, checked gob/flush
// errors, and joined goroutines.
//
// Findings can be suppressed with a directive comment on the flagged line
// or the line directly above it:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory: a suppression without a justification is itself
// a defect. See DESIGN.md ("Static analysis") for the rule catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

// String renders the finding in the canonical "file:line: rule: message"
// form consumed by editors and CI logs.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Analyzer is one named rule. Run inspects a single type-checked package
// and reports violations through the pass.
type Analyzer struct {
	Name string
	Doc  string
	// Run inspects one package. Packages are analyzed concurrently, so
	// an analyzer carrying cross-package state must synchronize it
	// itself and defer any order-dependent decision to Finish.
	Run func(pass *Pass)
	// Finish, when set, runs once (serially) after every package's Run
	// has completed, on a Pass whose Pkg is nil; report through
	// ReportPosf. Cross-package analyzers collect during Run and decide
	// deterministically here.
	Finish func(pass *Pass)
}

// Pass couples one analyzer invocation with one package.
type Pass struct {
	Pkg  *Package
	rule string
	out  *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Finding{
		Rule: p.rule,
		Pos:  p.Pkg.Fset.Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// ReportPosf records a finding at an already-resolved position. Finish
// hooks use it: they run without a package, on positions captured during
// the per-package Run phase.
func (p *Pass) ReportPosf(pos token.Position, format string, args ...any) {
	*p.out = append(*p.out, Finding{Rule: p.rule, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Run applies every analyzer to every package and returns the surviving
// findings (suppressed ones are dropped) sorted by file, line, rule, and
// message. Packages are analyzed concurrently, one worker per CPU; the
// output is deterministic because findings are collected per package and
// cross-package analyzers decide in their serial Finish phase.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	perPkg := make([][]Finding, len(pkgs))
	igs := make([]ignoreSet, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			var raw []Finding
			for _, a := range analyzers {
				a.Run(&Pass{Pkg: pkg, rule: a.Name, out: &raw})
			}
			perPkg[i] = raw
			igs[i] = collectIgnores(pkg)
		}(i, pkg)
	}
	wg.Wait()

	var finish []Finding
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(&Pass{rule: a.Name, out: &finish})
		}
	}

	// Suppression is global: ignore keys are file:line, so directives
	// collected per package merge without collisions, and Finish-phase
	// findings are filtered by the same set.
	ig := ignoreSet{}
	for _, pig := range igs {
		for k, v := range pig {
			ig[k] = append(ig[k], v...)
		}
	}
	var all []Finding
	for _, raw := range append(perPkg, finish) {
		for _, f := range raw {
			if !ig.suppressed(f) {
				all = append(all, f)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return all
}

// ignoreKey addresses one suppression directive site.
type ignoreKey struct {
	file string
	line int
}

type ignoreSet map[ignoreKey][]string // -> rules covered at that line

// collectIgnores scans all comments of a package for lint:ignore
// directives. A directive covers findings on its own line (trailing
// comment) and on the line directly below it (standalone comment).
func collectIgnores(pkg *Package) ignoreSet {
	ig := ignoreSet{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) < 2 {
					// A directive without rule+reason is malformed; it
					// suppresses nothing.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := ignoreKey{file: pos.Filename, line: pos.Line}
				ig[key] = append(ig[key], strings.Split(fields[0], ",")...)
			}
		}
	}
	return ig
}

func (ig ignoreSet) suppressed(f Finding) bool {
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		for _, rule := range ig[ignoreKey{file: f.Pos.Filename, line: line}] {
			if rule == f.Rule {
				return true
			}
		}
	}
	return false
}

// DefaultAnalyzers returns the production rule set with the repository's
// target-package configuration applied.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NetDeadlineAnalyzer([]string{
			"exdra/internal/fedrpc",
			"exdra/internal/worker",
			"exdra/internal/netem",
		}),
		NoPanicAnalyzer([]string{
			// Matrix shape-check kernels are the one sanctioned panic site:
			// a shape mismatch is a programming error in the caller, the
			// kernels sit on hot paths, and the worker converts a panic in
			// one request into that request's error response.
			"exdra/internal/matrix",
		}),
		GobErrAnalyzer(),
		GoroLeakAnalyzer(),
		SleepCancelAnalyzer(),
		CtxFlowAnalyzer(),
		ObsRegAnalyzer(),
		GuardedByAnalyzer(),
		LockHoldAnalyzer(),
		CtxCancelAnalyzer(),
	}
}

// calleeName returns the bare name of a call's callee: the selector name
// for method/package calls, the identifier for plain calls, "" otherwise.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// errorType is the universe error type, for result-type checks.
var errorType = types.Universe.Lookup("error").Type()
