package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path      string // import path ("scarecrow/internal/core")
	Dir       string // absolute directory
	Name      string // package name from the package clause
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	loader *Loader
}

// Loader parses and type-checks module-local packages without shelling out
// to the go tool or downloading modules: import paths under the module path
// resolve against the module tree, and standard-library imports are
// type-checked from GOROOT sources via the compiler-independent source
// importer. Test files (_test.go) are excluded, matching what ships.
//
// Loads are memoized. A Loader is not safe for concurrent use.
type Loader struct {
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path from go.mod
	Fset       *token.FileSet

	std   types.Importer
	pkgs  map[string]*Package
	extra map[string]string // import path -> directory overrides (fixtures)
}

// NewLoader builds a loader for the module rooted at moduleRoot.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		extra:      make(map[string]string),
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// AddPackageDir maps an import path to an explicit directory, overriding
// module resolution. The analysis tests use it to load fixture packages
// from testdata under simulated import paths.
func (l *Loader) AddPackageDir(importPath, dir string) {
	l.extra[importPath] = dir
}

// dirFor resolves an import path to a source directory, or "" when the
// path is not module-local.
func (l *Loader) dirFor(path string) string {
	if dir, ok := l.extra[path]; ok {
		return dir
	}
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
	}
	return ""
}

// Load parses and type-checks the package at the given import path,
// caching the result. Standard-library paths are rejected; they are only
// reachable as dependencies via Import.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: %s is not a module-local package", path)
	}
	pkgName, files, err := parseDir(l.Fset, dir)
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErrs[0])
	}

	pkg := &Package{
		Path:      path,
		Dir:       dir,
		Name:      pkgName,
		Fset:      l.Fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
		loader:    l,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadedPaths returns the import paths of every package the loader has
// type-checked so far (all module-local by construction), sorted.
func (l *Loader) LoadedPaths() []string {
	out := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Import implements types.Importer: module-local packages load through the
// loader, everything else through the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.dirFor(path) != "" {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// parseDir parses the non-test Go files of one directory, which must all
// belong to a single package, and returns them in filename order.
func parseDir(fset *token.FileSet, dir string) (string, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "", nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	pkgName := ""
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return "", nil, fmt.Errorf("lint: parsing %s: %w", filepath.Join(dir, n), err)
		}
		switch pkgName {
		case "", f.Name.Name:
			pkgName = f.Name.Name
		default:
			return "", nil, fmt.Errorf("lint: %s contains multiple packages (%s, %s)", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	return pkgName, files, nil
}

// Expand resolves command-line package patterns relative to cwd into
// import paths. Supported forms: "./..." and "dir/..." recursive walks,
// plain directories ("./internal/core", "examples/quickstart"), and
// module-local import paths. Directories named testdata, vendored trees,
// and hidden directories are skipped, as the go tool does.
func (l *Loader) Expand(patterns []string, cwd string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			rest = strings.TrimSuffix(rest, "/")
			if rest == "." || rest == "" {
				rest = cwd
			} else if !filepath.IsAbs(rest) {
				rest = filepath.Join(cwd, rest)
			}
			paths, err := l.walk(rest)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
			continue
		}
		// Import-path form.
		if l.dirFor(pat) != "" {
			add(pat)
			continue
		}
		// Directory form.
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: cannot resolve pattern %q: %w", pat, err)
		}
		add(path)
	}
	return out, nil
}

// walk returns the import paths of every package directory under root that
// contains at least one non-test Go file.
func (l *Loader) walk(root string) ([]string, error) {
	var out []string
	err := filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		path, err := l.importPathFor(filepath.Dir(p))
		if err != nil {
			return err
		}
		for _, have := range out {
			if have == path {
				return nil
			}
		}
		out = append(out, path)
		return nil
	})
	sort.Strings(out)
	return out, err
}

// importPathFor maps an absolute directory inside the module to its import
// path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if abs == l.ModuleRoot {
		return l.ModulePath, nil
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}
