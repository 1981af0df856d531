package main

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

// loader parses and type-checks module packages with nothing but the
// standard library: intra-module imports are resolved against the module
// tree, everything else is handed to the stdlib source importer.
//
// The loader is safe for concurrent unit type-checks once preload has run:
// preload walks the module-local import DAG bottom-up and fills the import
// cache in dependency order (parallel within each wave), so the recursive
// ImportFrom calls issued by concurrent conf.Check runs only ever hit the
// cache or the (serialised) stdlib source importer.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string

	std   types.ImporterFrom
	stdMu sync.Mutex // the source importer is not safe for concurrent use

	mu    sync.Mutex
	cache map[string]*types.Package // import view: no test files
}

func newLoader(modRoot, modPath string) *loader {
	// Force the pure-Go build variant so source-importing net/http and
	// friends never needs a working C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:   map[string]*types.Package{},
	}
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// moduleLocal reports whether path names a package inside this module.
func (l *loader) moduleLocal(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// dirFor maps a module-local import path onto its directory.
func (l *loader) dirFor(path string) string {
	if path == l.modPath {
		return l.modRoot
	}
	return filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modRoot, 0)
}

// ImportFrom implements types.ImporterFrom.  Module-internal paths map onto
// directories under the module root; everything else (the standard library)
// goes to the source importer.
func (l *loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !l.moduleLocal(path) {
		l.stdMu.Lock()
		defer l.stdMu.Unlock()
		return l.std.ImportFrom(path, l.modRoot, 0)
	}
	l.mu.Lock()
	pkg, ok := l.cache[path]
	l.mu.Unlock()
	if ok {
		return pkg, nil
	}
	// Cache miss outside preload order: load serially.  preload fills the
	// cache for every dependency of the linted dirs, so this path only runs
	// for single-goroutine callers (tests driving the loader directly).
	pkg, _, _, err := l.check(l.dirFor(path), path, false)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.cache[path] = pkg
	l.mu.Unlock()
	return pkg, nil
}

// moduleImportsOf parses just the import clauses of every .go file in dir
// and returns the module-local dependencies, split into the import-view
// edges (non-test files — these order the preload waves) and test-only
// extras (test files may import packages that import this one, e.g. from an
// external _test package, so they expand the load set but must not create
// readiness edges).  The package's own path is excluded.
func (l *loader) moduleImportsOf(dir, selfPath string) (nonTest, testOnly []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	seenNonTest := map[string]bool{}
	seenTest := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !buildFile(dir, name) {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, nil, err
		}
		isTest := strings.HasSuffix(name, "_test.go")
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !l.moduleLocal(p) || p == selfPath {
				continue
			}
			if isTest {
				if !seenTest[p] {
					seenTest[p] = true
					testOnly = append(testOnly, p)
				}
			} else if !seenNonTest[p] {
				seenNonTest[p] = true
				nonTest = append(nonTest, p)
			}
		}
	}
	sort.Strings(nonTest)
	sort.Strings(testOnly)
	return nonTest, testOnly, nil
}

// preload fills the import cache with every module-local package the given
// directories depend on, loading independent packages in parallel.  The
// import graph is walked transitively with cheap imports-only parses, cycle
// errors are reported up front, and packages are then type-checked in
// dependency waves: a package only starts once all of its module-local
// dependencies are cached, so concurrent ImportFrom calls never race on an
// in-flight load.
func (l *loader) preload(dirs []string, workers int) error {
	// Discover the transitive module-local import set.
	deps := map[string][]string{}
	var visit func(path, dir string) error
	visit = func(path, dir string) error {
		if _, ok := deps[path]; ok {
			return nil
		}
		imps, testImps, err := l.moduleImportsOf(dir, path)
		if err != nil {
			return err
		}
		deps[path] = imps
		for _, p := range append(imps, testImps...) {
			if err := visit(p, l.dirFor(p)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return err
		}
		if err := visit(path, dir); err != nil {
			return err
		}
	}

	// Topologically order into waves; a non-empty remainder with no ready
	// package is an import cycle.
	loaded := map[string]bool{}
	remaining := make([]string, 0, len(deps))
	for p := range deps {
		remaining = append(remaining, p)
	}
	sort.Strings(remaining)
	for len(remaining) > 0 {
		var wave, rest []string
		for _, p := range remaining {
			ready := true
			for _, d := range deps[p] {
				if !loaded[d] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, p)
			} else {
				rest = append(rest, p)
			}
		}
		if len(wave) == 0 {
			return fmt.Errorf("import cycle among %s", strings.Join(rest, ", "))
		}
		errs := make([]error, len(wave))
		runPool(workers, len(wave), func(i int) {
			_, errs[i] = l.ImportFrom(wave[i], l.modRoot, 0)
		})
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("loading %s: %w", wave[i], err)
			}
		}
		for _, p := range wave {
			loaded[p] = true
		}
		remaining = rest
	}
	return nil
}

// importPathFor derives the module-relative import path of dir.
func (l *loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.modRoot)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses every .go file of dir, grouped by package clause and
// sorted by filename so runs are deterministic.
func (l *loader) parseDir(dir string) (map[string][]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && buildFile(dir, e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	byPkg := map[string][]*ast.File{}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
	}
	return byPkg, nil
}

// check type-checks the package in dir.  With includeTests set, in-package
// _test.go files are part of the checked unit (the lint view); without, only
// the shippable files are (the import view).
func (l *loader) check(dir, importPath string, includeTests bool) (*types.Package, []*ast.File, *types.Info, error) {
	byPkg, err := l.parseDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	var pkgName string
	for name, fs := range byPkg {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		if pkgName != "" && name != pkgName {
			return nil, nil, nil, fmt.Errorf("%s: multiple packages %s and %s", dir, pkgName, name)
		}
		pkgName = name
		files = append(files, fs...)
	}
	if pkgName == "" {
		return nil, nil, nil, fmt.Errorf("%s: no non-test Go files", dir)
	}
	if !includeTests {
		var kept []*ast.File
		for _, f := range files {
			if !strings.HasSuffix(l.fset.Position(f.Pos()).Filename, "_test.go") {
				kept = append(kept, f)
			}
		}
		files = kept
		if len(files) == 0 {
			return nil, nil, nil, fmt.Errorf("%s: only test files", dir)
		}
	}
	sort.Slice(files, func(i, j int) bool {
		return l.fset.Position(files[i].Pos()).Filename < l.fset.Position(files[j].Pos()).Filename
	})
	return l.typeCheck(importPath, files)
}

// checkExternalTest type-checks the foo_test external test package of dir,
// if any.  It returns nils when the directory has none.
func (l *loader) checkExternalTest(dir, importPath string) (*types.Package, []*ast.File, *types.Info, error) {
	byPkg, err := l.parseDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	var name string
	for n, fs := range byPkg {
		if strings.HasSuffix(n, "_test") {
			name = n
			files = append(files, fs...)
		}
	}
	if len(files) == 0 {
		return nil, nil, nil, nil
	}
	sort.Slice(files, func(i, j int) bool {
		return l.fset.Position(files[i].Pos()).Filename < l.fset.Position(files[j].Pos()).Filename
	})
	return l.typeCheck(importPath+" ["+name+"]", files)
}

func (l *loader) typeCheck(importPath string, files []*ast.File) (*types.Package, []*ast.File, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, nil, nil, fmt.Errorf("type-checking %s:\n\t%s", importPath, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return pkg, files, info, nil
}

// resolvePatterns expands command-line package patterns ("./...", "dir/...",
// plain directories) into the sorted list of directories to lint.
func resolvePatterns(modRoot string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || pat == "./..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(modRoot, base)
		}
		if st, err := os.Stat(base); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("package pattern %q: not a directory", pat)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && buildFile(dir, e.Name()) && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// buildFile reports whether name is a Go file of dir's package as the
// compiler builds it for this GOOS/GOARCH.  A file excluded by a _GOARCH
// suffix or a //go:build line declares another platform's variant of the
// same names, so type-checking it beside this platform's would fail.  A
// file whose header cannot be read is kept, so its parse reports the error.
func buildFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return ok || err != nil
}
