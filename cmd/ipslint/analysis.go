package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.  Per-package analyzers set Run,
// which inspects a fully type-checked package (a Pass) and reports findings
// through pass.Reportf.  Cross-function analyzers set RunModule instead,
// which sees the whole module call graph at once.  The driver handles
// suppression, sorting, and printing.
type Analyzer struct {
	// Name is the short identifier used in output lines and in
	// "//lint:ignore ipslint/<name> reason" suppression directives.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Run inspects one package.  Nil for module-level analyzers.
	Run func(pass *Pass)
	// RunModule inspects the whole module (call graph included).  Nil for
	// per-package analyzers.
	RunModule func(pass *ModulePass)
}

// analyzers is the registry, in the order checks run within a package.
// Output order is positional regardless.
var analyzers = []*Analyzer{
	noglobalrandAnalyzer,
	floateqAnalyzer,
	spanendAnalyzer,
	mutexcopyAnalyzer,
	nakedGoroutineAnalyzer,
	errswallowAnalyzer,
	ctxfirstAnalyzer,
	nostdlogAnalyzer,
	maporderAnalyzer,
	wallclockAnalyzer,
	hotallocAnalyzer,
	ctxflowAnalyzer,
	globalwriteAnalyzer,
}

func analyzerByName(name string) *Analyzer {
	for _, a := range analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Finding is one reported invariant violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: ipslint/%s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass is everything an analyzer may inspect for one package: the syntax
// trees, the type information, and which files are tests.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// TypeOf is Info.TypeOf with a nil guard.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ignoreRe matches suppression directives.  The reason is mandatory: a bare
// directive with no justification is itself reported.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+ipslint/(\S+)(?:\s+(.*))?$`)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// collectIgnores parses every //lint:ignore ipslint/<name> directive in the
// files.  Directives are keyed by (filename, line): a directive suppresses
// findings on its own line and on the line immediately below it (the usual
// "comment above the statement" placement).
func collectIgnores(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				out = append(out, &ignoreDirective{
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
					pos:      fset.Position(c.Pos()),
				})
			}
		}
	}
	return out
}

// applyIgnores drops findings covered by a directive and reports misuse:
// reason-less directives and directives that suppress nothing both become
// findings themselves, so suppressions cannot rot silently.  Directives for
// analyzers outside the enabled set are left alone — a -checks subset must
// not condemn suppressions it never gave a chance to fire.
func applyIgnores(findings []Finding, directives []*ignoreDirective, enabled []*Analyzer) []Finding {
	on := map[string]bool{}
	for _, a := range enabled {
		on[a.Name] = true
	}
	var kept []Finding
	for _, f := range findings {
		suppressed := false
		for _, d := range directives {
			if d.analyzer != f.Analyzer || d.pos.Filename != f.Pos.Filename {
				continue
			}
			if d.pos.Line == f.Pos.Line || d.pos.Line == f.Pos.Line-1 {
				d.used = true
				if d.reason != "" {
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	for _, d := range directives {
		if !on[d.analyzer] {
			continue
		}
		if d.reason == "" {
			kept = append(kept, Finding{
				Analyzer: "ignore",
				Pos:      d.pos,
				Message:  fmt.Sprintf("lint:ignore ipslint/%s directive needs a reason", d.analyzer),
			})
		} else if !d.used {
			kept = append(kept, Finding{
				Analyzer: "ignore",
				Pos:      d.pos,
				Message:  fmt.Sprintf("lint:ignore ipslint/%s suppresses nothing (stale directive?)", d.analyzer),
			})
		}
	}
	return kept
}

// runAnalyzers runs every enabled per-package analyzer over one type-checked
// package and returns the raw findings.  Suppression directives are applied
// by the driver after module-level analyzers have run, so one directive set
// covers both kinds of findings.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, enabled []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range enabled {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			analyzer: a,
			findings: &findings,
		}
		a.Run(pass)
	}
	return findings
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Message < fs[j].Message
	})
}
