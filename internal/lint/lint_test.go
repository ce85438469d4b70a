package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureLoader returns a loader rooted at the module (two levels up from
// this package). Each test gets a fresh loader, but the standard-library
// importer is shared process-wide, so the expensive stdlib type-check
// happens once per `go test` run.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// wantSet scans the fixture directory for trailing "// want <rule>" markers
// and returns the expected findings as "file:line:rule" keys.
func wantSet(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, marker, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			rule := strings.Fields(marker)[0]
			want[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, rule)] = true
		}
	}
	if len(want) == 0 {
		t.Fatalf("no want markers in %s: fixture is not exercising the rule", dir)
	}
	return want
}

// checkFixture loads testdata/<name>, runs the analyzer, and compares the
// findings against the fixture's want markers. Suppressed and negative
// cases are covered by the exact-set comparison: an unexpected finding on
// them fails the test.
func checkFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	pkg, err := fixtureLoader(t).LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, pkg.TypeErrors)
	}
	got := map[string]bool{}
	for _, f := range Run([]*Package{pkg}, []*Analyzer{a}) {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)] = true
	}
	want := wantSet(t, dir)
	for k := range want {
		if !got[k] {
			t.Errorf("missing finding %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s", k)
		}
	}
}

func TestNetDeadlineFixture(t *testing.T) {
	checkFixture(t, "netdl", NetDeadlineAnalyzer([]string{"fixture/netdl"}))
}

func TestNetDeadlineSkipsUntargetedPackages(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "netdl"), "fixture/netdl")
	if err != nil {
		t.Fatal(err)
	}
	a := NetDeadlineAnalyzer([]string{"exdra/internal/fedrpc"})
	if fs := Run([]*Package{pkg}, []*Analyzer{a}); len(fs) != 0 {
		t.Fatalf("netdeadline fired outside its target packages: %v", fs)
	}
}

func TestNoPanicFixture(t *testing.T) {
	checkFixture(t, "nopanictd", NoPanicAnalyzer(nil))
}

func TestNoPanicAllowlist(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "nopanictd"), "fixture/nopanictd")
	if err != nil {
		t.Fatal(err)
	}
	a := NoPanicAnalyzer([]string{"fixture/nopanictd"})
	if fs := Run([]*Package{pkg}, []*Analyzer{a}); len(fs) != 0 {
		t.Fatalf("nopanic fired inside an allowlisted package: %v", fs)
	}
}

func TestGobErrFixture(t *testing.T) {
	checkFixture(t, "goberrtd", GobErrAnalyzer())
}

func TestGoroLeakFixture(t *testing.T) {
	checkFixture(t, "goroleaktd", GoroLeakAnalyzer())
}

func TestSleepCancelFixture(t *testing.T) {
	checkFixture(t, "sleeptd", SleepCancelAnalyzer())
}

func TestCtxFlowFixture(t *testing.T) {
	checkFixture(t, "ctxflowtd", CtxFlowAnalyzer())
}

func TestObsRegFixture(t *testing.T) {
	checkFixture(t, "obsregtd", ObsRegAnalyzer())
}

func TestGuardedByFixture(t *testing.T) {
	checkFixture(t, "guardedbytd", GuardedByAnalyzer())
}

func TestLockHoldFixture(t *testing.T) {
	checkFixture(t, "lockholdtd", LockHoldAnalyzer())
}

func TestCtxCancelFixture(t *testing.T) {
	checkFixture(t, "ctxcanceltd", CtxCancelAnalyzer())
}

func TestSleepCancelExemptsPackageMain(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "sleepmain"), "fixture/sleepmain")
	if err != nil {
		t.Fatal(err)
	}
	if fs := Run([]*Package{pkg}, []*Analyzer{SleepCancelAnalyzer()}); len(fs) != 0 {
		t.Fatalf("sleepcancel fired in package main: %v", fs)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Rule: "nopanic",
		Pos:  token.Position{Filename: "a/b.go", Line: 7, Column: 3},
		Msg:  "boom",
	}
	if got, want := f.String(), "a/b.go:7: nopanic: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestIgnoreDirectiveParsing checks the suppression grammar directly: a
// directive needs rule(s) AND a reason; it covers its own line and the
// line below; comma lists cover several rules.
func TestIgnoreDirectiveParsing(t *testing.T) {
	src := `package p

//lint:ignore ruleA justified because reasons
var a int

var b int //lint:ignore ruleB,ruleC trailing form

//lint:ignore ruleD
var c int
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{file}}
	ig := collectIgnores(pkg)
	cases := []struct {
		line int
		rule string
		want bool
	}{
		{4, "ruleA", true},  // standalone directive covers the line below
		{3, "ruleA", true},  // ...and its own line
		{5, "ruleA", false}, // ...but not two lines down
		{6, "ruleB", true},  // trailing form, first of a comma list
		{6, "ruleC", true},  // ...second of the list
		{6, "ruleA", false}, // other rules unaffected
		{9, "ruleD", false}, // reason missing: directive is inert
	}
	for _, c := range cases {
		f := Finding{Rule: c.rule, Pos: token.Position{Filename: "p.go", Line: c.line}}
		if got := ig.suppressed(f); got != c.want {
			t.Errorf("suppressed(%s@%d) = %v, want %v", c.rule, c.line, got, c.want)
		}
	}
}

// TestRunSuppressionAcrossPackages checks the end-to-end suppression filter
// in Run, which analyzes packages in parallel and merges their ignore
// directives into one set: the directive in one package must drop exactly
// its own finding, never a sibling package's identical violation.
func TestRunSuppressionAcrossPackages(t *testing.T) {
	l := fixtureLoader(t)
	write := func(dir, name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	write(dirA, "a.go", `package a

func A() {
	panic("boom") //lint:ignore nopanic fixture exercises suppression
}
`)
	write(dirB, "b.go", `package b

func B() {
	panic("boom")
}
`)
	pa, err := l.LoadDir(dirA, "fixture/supa")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := l.LoadDir(dirB, "fixture/supb")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{pa, pb}, []*Analyzer{NoPanicAnalyzer(nil)})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the unsuppressed one: %v", len(findings), findings)
	}
	if got := filepath.Base(findings[0].Pos.Filename); got != "b.go" {
		t.Errorf("surviving finding is in %s, want b.go", got)
	}
}

// TestRunDeterministicOrder runs the same multi-package analysis several
// times: the parallel Run must produce identical, position-sorted output
// every time regardless of goroutine scheduling.
func TestRunDeterministicOrder(t *testing.T) {
	l := fixtureLoader(t)
	var pkgs []*Package
	for _, name := range []string{"nopanictd", "goberrtd", "guardedbytd", "lockholdtd"} {
		p, err := l.LoadDir(filepath.Join("testdata", name), "fixture/"+name)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	analyzers := []*Analyzer{NoPanicAnalyzer(nil), GobErrAnalyzer(), GuardedByAnalyzer(), LockHoldAnalyzer()}
	render := func() []string {
		var out []string
		for _, f := range Run(pkgs, analyzers) {
			out = append(out, f.String())
		}
		return out
	}
	first := Run(pkgs, analyzers)
	if len(first) == 0 {
		t.Fatal("fixtures produced no findings; determinism test is vacuous")
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		a, b := first[i].Pos, first[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	}) {
		t.Errorf("findings are not position-sorted: %v", first)
	}
	want := render()
	for i := 0; i < 3; i++ {
		if got := render(); !slicesEqual(got, want) {
			t.Fatalf("run %d produced different output:\n%v\nvs\n%v", i+2, got, want)
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLoadPatternsErrors covers the loader's failure paths: a pattern
// escaping the module, a nonexistent directory, and a directory with no
// buildable Go files.
func TestLoadPatternsErrors(t *testing.T) {
	l := fixtureLoader(t)
	if _, err := l.LoadPatterns([]string{"../outside"}); err == nil ||
		!strings.Contains(err.Error(), "outside module") {
		t.Errorf("pattern escaping the module: err = %v, want 'outside module'", err)
	}
	if _, err := l.LoadPatterns([]string{"./no-such-dir"}); err == nil {
		t.Error("nonexistent plain directory: no error")
	}
	if _, err := l.LoadPatterns([]string{"./no-such-dir/..."}); err == nil {
		t.Error("nonexistent pattern root: no error")
	}
}

func TestLoadDirNoGoFiles(t *testing.T) {
	l := fixtureLoader(t)
	if _, err := l.LoadDir(t.TempDir(), "fixture/empty"); err == nil ||
		!strings.Contains(err.Error(), "no buildable Go files") {
		t.Errorf("empty dir: err = %v, want 'no buildable Go files'", err)
	}
}

// TestLoadDirHonoursBuildConstraints: a package with an _amd64.go file and
// a //go:build !amd64 file that declare the same names loads without type
// errors, from exactly the files go build would compile here.
func TestLoadDirHonoursBuildConstraints(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "buildtagtd"), "fixture/buildtagtd")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	if n := len(pkg.Files); n != 2 {
		t.Fatalf("loaded %d files, want buildtagtd.go and one kernel file", n)
	}
}

// TestSelfLint is the keystone: the production rule set must report zero
// findings on the repository itself. Any new violation lands here (and in
// ci.sh) before it lands on a federated worker.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint type-checks the whole module; skipped in -short")
	}
	l := fixtureLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern walk is broken", len(pkgs))
	}
	findings := Run(pkgs, DefaultAnalyzers())
	for _, f := range findings {
		t.Errorf("self-lint: %s", f)
	}
	if t.Failed() {
		sort.Slice(findings, func(i, j int) bool { return findings[i].String() < findings[j].String() })
		t.Logf("%d findings; fix them or add a justified //lint:ignore", len(findings))
	}
}
