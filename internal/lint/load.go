package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	// Path is the import path (module-qualified for module packages,
	// testdata/src-relative for fixtures).
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions every file of every package of one load.
	Fset *token.FileSet
	// Files are the parsed sources, with comments.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// ModuleRoot walks up from dir to the enclosing go.mod directory.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(strings.TrimSuffix(rest, "// indirect")), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// Loader type-checks packages against a shared FileSet and source
// importer, so stdlib dependencies are checked once per load, not once
// per package.
type Loader struct {
	Fset *token.FileSet
	// IncludeTests adds in-package _test.go files to each package's
	// check. External (_test package) files are never loaded.
	IncludeTests bool
	// FixtureRoot, when set, resolves imports against that directory
	// before the source importer: an import path "internal/spawner" in a
	// fixture loads testdata/src/internal/spawner as a fixture package.
	// This is what lets cross-package fixtures (the goroutinefree and
	// ctxpoll call-graph cases) type-check offline.
	FixtureRoot string

	imp      types.Importer
	fixtures map[string]*Package
	loading  map[string]bool
}

// NewLoader returns a loader with a fresh FileSet and source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		imp:      importer.ForCompiler(fset, "source", nil),
		fixtures: make(map[string]*Package),
		loading:  make(map[string]bool),
	}
}

// loaderImporter routes imports through the loader: fixture packages
// first (when FixtureRoot is set), the shared source importer otherwise.
type loaderImporter struct{ l *Loader }

func (li loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := li.l
	if l.FixtureRoot != "" {
		if pkg, ok := l.fixtures[path]; ok {
			return pkg.Types, nil
		}
		fdir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if st, err := os.Stat(fdir); err == nil && st.IsDir() {
			if l.loading[path] {
				return nil, fmt.Errorf("lint: fixture import cycle through %q", path)
			}
			pkg, err := l.LoadDir(fdir, path)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	if from, ok := l.imp.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return l.imp.Import(path)
}

// LoadModule loads every buildable package under the module rooted at
// root, skipping testdata, hidden and vendor directories. The returned
// packages are sorted by import path.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	return l.loadModule(root, nil)
}

// loadModule is LoadModule leaving out the package directories in skip.
func (l *Loader) loadModule(root string, skip map[string]bool) ([]*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		if skip[dir] {
			continue
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		names := append([]string(nil), bp.GoFiles...)
		if l.IncludeTests {
			names = append(names, bp.TestGoFiles...)
		}
		if len(names) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.check(dir, path, names)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDirAsModulePackage loads the single package in dir with its import
// path derived from the module rooted at root.
func (l *Loader) LoadDirAsModulePackage(root, dir string) (*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	if l.IncludeTests {
		names = append(names, bp.TestGoFiles...)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	return l.check(dir, path, names)
}

// LoadDir loads the single package in dir under the given import path.
// The analyzer test harness uses it to load testdata/src/<path> fixtures;
// fixtures may import the standard library and, when FixtureRoot is set,
// other fixture packages under it.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.fixtures[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	l.loading[path] = true
	pkg, err := l.check(dir, path, names)
	delete(l.loading, path)
	if err != nil {
		return nil, err
	}
	l.fixtures[path] = pkg
	return pkg, nil
}

func (l *Loader) check(dir, path string, names []string) (*Package, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: loaderImporter{l}}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}
