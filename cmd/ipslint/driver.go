package main

import (
	"context"
	"go/ast"
	"go/types"
	"runtime"

	"ips/internal/par"
)

// unit is one type-checked lint unit: a package directory's lint view
// (shippable files plus in-package tests) or its external _test package.
type unit struct {
	dir   string
	path  string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	xtest bool
}

// lintDirs is the full analysis pipeline: preload the module-local import
// graph, type-check every lint unit on a bounded parallel pool, run the
// per-package analyzers per unit (also in parallel), run the module-level
// analyzers over the merged call graph, then apply suppression directives
// globally and sort.  Findings are byte-identical for any worker count: all
// merges happen in deterministic unit order and the final sort breaks every
// tie.
func lintDirs(l *loader, dirs []string, enabled []*Analyzer) ([]Finding, error) {
	workers := runtime.GOMAXPROCS(0)
	if err := l.preload(dirs, workers); err != nil {
		return nil, err
	}

	// Type-check units in parallel: slots 2i / 2i+1 hold dir i's package
	// unit and external-test unit, keeping downstream order deterministic.
	units := make([]*unit, 2*len(dirs))
	errs := make([]error, len(dirs))
	par.Run(context.Background(), workers, len(dirs), func(_ int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			dir := dirs[i]
			path, err := l.importPathFor(dir)
			if err != nil {
				errs[i] = err
				continue
			}
			pkg, files, info, err := l.check(dir, path, true)
			if err != nil {
				errs[i] = err
				continue
			}
			units[2*i] = &unit{dir: dir, path: path, pkg: pkg, files: files, info: info}
			xpkg, xfiles, xinfo, err := l.checkExternalTest(dir, path)
			if err != nil {
				errs[i] = err
				continue
			}
			if xpkg != nil {
				units[2*i+1] = &unit{dir: dir, path: path, pkg: xpkg, files: xfiles, info: xinfo, xtest: true}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var flat []*unit
	for _, u := range units {
		if u != nil {
			flat = append(flat, u)
		}
	}

	// Per-package analysis, one unit per work item, findings merged in unit
	// order.
	perUnit := make([][]Finding, len(flat))
	par.Run(context.Background(), workers, len(flat), func(_ int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			u := flat[i]
			perUnit[i] = runAnalyzers(l.fset, u.files, u.pkg, u.info, enabled)
		}
	})
	var findings []Finding
	for _, fs := range perUnit {
		findings = append(findings, fs...)
	}

	// Module-level analysis over the merged call graph.
	mod := buildModule(l.fset, l.modPath, flat)
	findings = append(findings, runModuleAnalyzers(mod, enabled)...)

	// Suppression directives apply globally, so one directive set covers
	// per-package and module findings alike, and stale directives surface.
	var directives []*ignoreDirective
	for _, u := range flat {
		directives = append(directives, collectIgnores(l.fset, u.files)...)
	}
	findings = applyIgnores(findings, directives, enabled)
	sortFindings(findings)
	return findings, nil
}
