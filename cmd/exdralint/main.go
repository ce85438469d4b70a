// Command exdralint runs the ExDRa project-specific static-analysis pass
// over the repository. It enforces the federation-runtime invariants that
// go vet cannot know about (see DESIGN.md, "Static analysis"):
//
//	netdeadline  conn I/O in fedrpc/worker/netem must arm deadlines
//	nopanic      library code returns errors instead of panicking
//	goberr       Encode/Decode/Flush errors must be checked
//	goroleak     go func literals in libraries must be joined
//	sleepcancel  library waits must be cancellable (no bare time.Sleep)
//	ctxflow      a received context.Context must propagate, not be dropped
//	obsreg       constant obs histogram names registered at one call site
//	guardedby    fields annotated "guarded by <mu>" accessed under that lock
//	lockhold     no blocking op (RPC, channel, conn I/O) while a lock is held
//
// Usage:
//
//	exdralint [packages]
//
// Packages are go-style patterns relative to the module root ("./..." by
// default). Findings print as "file:line: rule: message"; the exit status
// is 1 when there are findings, 2 on load errors, 0 on a clean tree. Suppress an
// individual finding with a justification:
//
//	//lint:ignore <rule> <reason>
//
// on the flagged line or the line directly above it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"exdra/internal/lint"
)

// parseArgs parses argv (without the program name) into package patterns.
// Usage and flag errors are written to stderr.
func parseArgs(argv []string, stderr io.Writer) ([]string, error) {
	fs := flag.NewFlagSet("exdralint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: exdralint [packages]\n")
	}
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	if fs.NArg() == 0 {
		return []string{"./..."}, nil
	}
	return fs.Args(), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: parse, load, analyze, print. It returns
// the process exit status (0 clean, 1 findings, 2 usage or load errors).
func run(argv []string, stdout, stderr io.Writer) int {
	patterns, err := parseArgs(argv, stderr)
	if err != nil {
		return 2
	}

	modDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "exdralint:", err)
		return 2
	}
	loader, err := lint.NewLoader(modDir)
	if err != nil {
		fmt.Fprintln(stderr, "exdralint:", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "exdralint:", err)
		return 2
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(stderr, "exdralint: %s: type warning: %v\n", p.Path, terr)
		}
	}
	findings := lint.Run(pkgs, lint.DefaultAnalyzers())
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "exdralint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// findModuleRoot walks upward from the working directory to the nearest
// go.mod.
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
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
