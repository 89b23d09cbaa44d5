package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
// Syntax holds the package's files plus its in-package _test.go files;
// an external test package (package foo_test) loads as its own Package
// with PkgPath suffixed "_test".
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader discovers and type-checks every package under a root
// directory, test files included. Module-internal imports resolve
// against the discovered tree; everything else (the standard library)
// resolves through the shared stdlib source importer, so no go/packages
// or external tooling is needed. Directories named testdata or vendor,
// and dot/underscore directories, are skipped — matching the go tool's
// ./... expansion, and keeping analyzer fixtures (with their deliberate
// violations) out of real runs.
type Loader struct {
	// Root is the directory whose subtree is loaded.
	Root string
	// ModulePath maps Root to an import-path prefix ("repro" for the
	// module root; "" makes import paths the slash-separated relative
	// directory, which is what testdata/src fixture trees use).
	ModulePath string

	units    map[string]*unit // by import path
	paths    []string         // sorted unit import paths
	checked  map[string]*types.Package
	checking map[string]bool
}

type unit struct {
	dir        string
	importPath string
	files      []*ast.File // non-test files
	testFiles  []*ast.File // in-package _test.go files
	xtestFiles []*ast.File // package foo_test files
}

// moduleDeps returns the module-internal import paths of the given
// files (only ones that resolve to discovered units).
func (l *Loader) moduleDeps(files []*ast.File) []string {
	seen := make(map[string]bool)
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if _, ok := l.units[p]; ok {
				seen[p] = true
			}
		}
	}
	deps := make([]string, 0, len(seen))
	for p := range seen {
		deps = append(deps, p)
	}
	sort.Strings(deps)
	return deps
}

// dependents returns every unit that transitively imports target
// (through non-test files), target excluded.
func (l *Loader) dependents(target string) map[string]bool {
	out := make(map[string]bool)
	for {
		grew := false
		for _, p := range l.paths {
			if p == target || out[p] {
				continue
			}
			for _, dep := range l.moduleDeps(l.units[p].files) {
				if dep == target || out[dep] {
					out[p] = true
					grew = true
					break
				}
			}
		}
		if !grew {
			return out
		}
	}
}

// fset and std are shared by every Loader in the process, so the
// standard library is type-checked from source once, not once per load
// (each analyzer fixture test and each module load would otherwise pay
// for time, os and fmt again). stdPkgs memoises std by import path: the
// source importer re-resolves the path with go/build — a directory
// scan reading every file's header — on each call, even for a package
// it has already checked. None of the three is safe for concurrent use;
// loads run one at a time — reprolint loads once, and no analysis test
// calls t.Parallel.
var (
	fset    = token.NewFileSet()
	std     = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	stdPkgs = make(map[string]*types.Package)
)

// NewLoader builds a loader rooted at dir whose packages import as
// modulePath/<relative-dir>.
func NewLoader(root, modulePath string) *Loader {
	return &Loader{
		Root:       root,
		ModulePath: modulePath,
		units:      make(map[string]*unit),
		checked:    make(map[string]*types.Package),
		checking:   make(map[string]bool),
	}
}

// Load discovers, parses, and type-checks the whole tree, returning one
// Package per package plus one per external test package, sorted by
// import path.
func (l *Loader) Load() ([]*Package, error) {
	if err := l.discover(); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range l.paths {
		u := l.units[p]
		files := append(append([]*ast.File{}, u.files...), u.testFiles...)
		var augmented *Package
		if len(files) > 0 {
			pkg, err := l.typeCheck(u.importPath, u.dir, files)
			if err != nil {
				return nil, err
			}
			augmented = pkg
			pkgs = append(pkgs, pkg)
		}
		if len(u.xtestFiles) > 0 {
			// The external test package sees the package under test
			// with its in-package test files included (export_test.go
			// helpers), exactly as the go tool builds it. Like the go
			// tool, every module dependency must be rebuilt against
			// that test variant for type identity to hold, so the
			// check runs with a variant import cache: the augmented
			// package replaces the canonical one, and every module
			// package that transitively imports it is evicted so it
			// re-checks against the variant (everything else keeps its
			// canonical identity).
			prev := l.checked
			l.checked = make(map[string]*types.Package, len(prev))
			dependents := l.dependents(u.importPath)
			for p, pkg := range prev {
				if !dependents[p] && p != u.importPath {
					l.checked[p] = pkg
				}
			}
			if augmented != nil {
				l.checked[u.importPath] = augmented.Types
			}
			pkg, err := l.typeCheck(u.importPath+"_test", u.dir, u.xtestFiles)
			l.checked = prev
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

func (l *Loader) discover() error {
	err := filepath.WalkDir(l.Root, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if dir != l.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return l.parseDir(dir)
	})
	if err != nil {
		return err
	}
	l.paths = l.paths[:0]
	for p := range l.units {
		l.paths = append(l.paths, p)
	}
	sort.Strings(l.paths)
	return nil
}

func (l *Loader) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var u *unit
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if u == nil {
			rel, err := filepath.Rel(l.Root, dir)
			if err != nil {
				return err
			}
			ip := l.ModulePath
			if rel != "." {
				ip = path.Join(ip, filepath.ToSlash(rel))
			}
			u = &unit{dir: dir, importPath: ip}
			l.units[ip] = u
		}
		switch {
		case strings.HasSuffix(name, "_test.go") && strings.HasSuffix(file.Name.Name, "_test"):
			u.xtestFiles = append(u.xtestFiles, file)
		case strings.HasSuffix(name, "_test.go"):
			u.testFiles = append(u.testFiles, file)
		default:
			u.files = append(u.files, file)
		}
	}
	return nil
}

// importPkg resolves one import for the type checker: module-internal
// paths type-check their unit (without test files, so test-induced
// cycles cannot form); anything else falls through to the stdlib source
// importer.
func (l *Loader) importPkg(p string) (*types.Package, error) {
	if p == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.checked[p]; ok {
		return pkg, nil
	}
	u, ok := l.units[p]
	if !ok {
		if pkg, ok := stdPkgs[p]; ok {
			return pkg, nil
		}
		pkg, err := std.ImportFrom(p, l.Root, 0)
		if err == nil {
			stdPkgs[p] = pkg
		}
		return pkg, err
	}
	if l.checking[p] {
		return nil, fmt.Errorf("import cycle through %s", p)
	}
	l.checking[p] = true
	defer delete(l.checking, p)
	pkg, err := l.check(p, u.files, nil)
	if err != nil {
		return nil, err
	}
	l.checked[p] = pkg
	return pkg, nil
}

// typeCheck builds the analysis view of a package, with full types.Info.
func (l *Loader) typeCheck(importPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	pkg, err := l.check(importPath, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		PkgPath:   importPath,
		Dir:       dir,
		Fset:      fset,
		Syntax:    files,
		Types:     pkg,
		TypesInfo: info,
	}, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

func (l *Loader) check(importPath string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return pkg, nil
}
