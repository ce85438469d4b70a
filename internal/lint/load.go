package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package (non-test files only — the
// rules target library and binary code, not tests).
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check failures; analysis proceeds on
	// the partial information (go build is the authoritative gate).
	TypeErrors []error
}

// Name returns the package name ("main" for binaries).
func (p *Package) Name() string {
	if p.Types != nil {
		return p.Types.Name()
	}
	if len(p.Files) > 0 {
		return p.Files[0].Name.Name
	}
	return ""
}

// TypeOf returns the static type of e, or nil when type information is
// unavailable (analyzers must degrade gracefully).
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ValueOf reports whether e denotes a value (not a type or package name)
// and returns its type.
func (p *Package) ValueOf(e ast.Expr) (types.Type, bool) {
	if p.Info == nil {
		return nil, false
	}
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type, tv.IsValue()
	}
	if id, ok := e.(*ast.Ident); ok {
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		if _, isVar := obj.(*types.Var); isVar {
			return obj.Type(), true
		}
	}
	return nil, false
}

// The standard-library importer is shared process-wide: type-checking the
// stdlib from source ($GOROOT/src) is the expensive part of a load, and
// its results are position-independent. Cgo is disabled so packages like
// net resolve to their pure-Go variants, which the source importer can
// check without invoking the cgo tool.
var (
	stdOnce sync.Once
	stdImp  types.ImporterFrom
	stdFset = token.NewFileSet()
)

func stdImporter() types.ImporterFrom {
	stdOnce.Do(func() {
		build.Default.CgoEnabled = false
		stdImp = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
	})
	return stdImp
}

// buildCtx decides which files of a directory make up its package: those
// whose file name and //go:build line match this host's GOOS and GOARCH, as
// go build picks them. Cgo is off, as for the standard library.
var buildCtx = func() build.Context {
	c := build.Default
	c.CgoEnabled = false
	return c
}()

// Loader loads and type-checks packages of one module from source, using
// only the standard library. Module-local imports are resolved by mapping
// the import path under the module root; everything else goes to the
// source importer.
type Loader struct {
	Fset    *token.FileSet
	modPath string
	modDir  string

	pkgs  map[string]*Package
	extra map[string]string // fixture import path -> dir
}

// NewLoader creates a loader rooted at modDir (the directory holding
// go.mod).
func NewLoader(modDir string) (*Loader, error) {
	abs, err := filepath.Abs(modDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:    stdFset,
		modPath: modPath,
		modDir:  abs,
		pkgs:    map[string]*Package{},
		extra:   map[string]string{},
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modDir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if dir, ok := l.extra[path]; ok {
		p, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return stdImporter().ImportFrom(path, srcDir, 0)
}

func (l *Loader) dirFor(importPath string) string {
	if importPath == l.modPath {
		return l.modDir
	}
	rel := strings.TrimPrefix(importPath, l.modPath+"/")
	return filepath.Join(l.modDir, filepath.FromSlash(rel))
}

func (l *Loader) load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	return l.loadDir(l.dirFor(importPath), importPath)
}

// LoadDir loads the package in dir under an explicit import path. It is
// the entry point for fixture packages outside the module tree.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	l.extra[importPath] = dir
	return l.loadDir(dir, importPath)
}

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := buildCtx.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	// Publish before checking: mutually-importing test fixtures cannot
	// occur in valid Go, but a re-entrant load of the same path must not
	// recurse forever on a broken tree.
	l.pkgs[importPath] = pkg
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, pkg.Info)
	if err != nil && tpkg == nil {
		delete(l.pkgs, importPath)
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// LoadPatterns loads packages named by go-style patterns relative to the
// module root: "./..." (everything), "./dir/..." (a subtree), or a plain
// directory. Results are sorted by import path.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(l.modDir, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			if err := walkPackageDirs(root, dirs); err != nil {
				return nil, err
			}
			continue
		}
		dirs[filepath.Join(l.modDir, filepath.FromSlash(pat))] = true
	}
	var paths []string
	for dir := range dirs {
		rel, err := filepath.Rel(l.modDir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.modDir)
		}
		if rel == "." {
			paths = append(paths, l.modPath)
		} else {
			paths = append(paths, l.modPath+"/"+filepath.ToSlash(rel))
		}
	}
	sort.Strings(paths)
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkPackageDirs collects directories containing non-test Go files,
// skipping testdata, vendor, and hidden/underscore directories.
func walkPackageDirs(root string, out map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			out[filepath.Dir(path)] = true
		}
		return nil
	})
}
