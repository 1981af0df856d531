package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Module is the cross-function view the module-level analyzers run over: a
// static call graph of every function declared in the linted packages, with
// the //ips:hotpath and //ips:blocking annotations resolved.  Only calls
// between module functions are edged; calls into the standard library are
// invisible (they are, by project policy, not hot-path or ctx-blocking
// concerns — time.Now has its own analyzer).
type Module struct {
	Fset *token.FileSet
	// Path is the module path; a package belongs to the module when its
	// import path is Path or lies under it.
	Path  string
	Funcs map[string]*FuncInfo
	// Order lists the keys of Funcs in declaration order (unit, file,
	// position), so analyzers that iterate the graph stay deterministic.
	Order []string
}

// FuncInfo is one function or method declaration in the module.
type FuncInfo struct {
	// Key is the stable cross-package identity, (*types.Func).FullName():
	// "pkg/path.Name" for functions, "(pkg/path.Recv).Name" for methods.
	Key  string
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *types.Package
	Info *types.Info
	// Hot marks a //ips:hotpath doc directive: the function (and everything
	// it statically calls) must stay allocation-free inside loops.
	Hot bool
	// Blocking marks a //ips:blocking doc directive: long-running work that
	// a caller must pass its context into.
	Blocking bool
	// HasCtx reports whether the declaration takes a context.Context.
	HasCtx bool
	// TestFile reports whether the declaration lives in a _test.go file.
	TestFile bool
	// Calls are the static call sites inside the body (nested function
	// literals attributed to this declaration) that resolve to another
	// module function.
	Calls []Call
}

// Call is one resolved module-internal call site.
type Call struct {
	Callee    string // key of the called FuncInfo
	Pos       token.Pos
	PassesCtx bool // a live context.Context value flows in as an argument
}

// ModulePass is the module-level analogue of Pass.
type ModulePass struct {
	Mod *Module

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Mod.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// hasDirective reports whether the doc comment carries the given
// //ips:<name> directive on a line of its own (trailing commentary after a
// space is allowed).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//ips:" + name
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}

// isCtxValue reports whether arg is a live context value rather than a fresh
// root: context.Background() and context.TODO() calls do not count as
// passing the caller's context along.
func isCtxValue(info *types.Info, arg ast.Expr) bool {
	t := info.TypeOf(arg)
	if t == nil || t.String() != "context.Context" {
		return false
	}
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "context" {
					if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
						return false
					}
				}
			}
		}
	}
	return true
}

// calleeFunc resolves the function or method a call expression statically
// targets, or nil for calls through function values, conversions, and
// builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// declaresCtxParam reports whether any parameter of the declaration has type
// context.Context.
func declaresCtxParam(info *types.Info, decl *ast.FuncDecl) bool {
	if decl.Type.Params == nil {
		return false
	}
	for _, field := range decl.Type.Params.List {
		if t := info.TypeOf(field.Type); t != nil && t.String() == "context.Context" {
			return true
		}
	}
	return false
}

// buildModule assembles the call graph from the lint units.  External-test
// units are excluded: test scaffolding is neither a hot path nor a ctxflow
// entry point.
func buildModule(fset *token.FileSet, modPath string, units []*unit) *Module {
	mod := &Module{Fset: fset, Path: modPath, Funcs: map[string]*FuncInfo{}}
	for _, u := range units {
		if u.xtest {
			continue
		}
		for _, file := range u.files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Key:      obj.FullName(),
					Obj:      obj,
					Decl:     fd,
					Pkg:      u.pkg,
					Info:     u.info,
					Hot:      hasDirective(fd.Doc, "hotpath"),
					Blocking: hasDirective(fd.Doc, "blocking"),
					HasCtx:   declaresCtxParam(u.info, fd),
					TestFile: strings.HasSuffix(fset.Position(fd.Pos()).Filename, "_test.go"),
				}
				collectCalls(fi, u.info)
				if _, dup := mod.Funcs[fi.Key]; !dup {
					mod.Funcs[fi.Key] = fi
					mod.Order = append(mod.Order, fi.Key)
				}
			}
		}
	}
	// Keep only call edges that land on module functions we actually
	// analyzed, so graph walks never chase dangling keys.
	for _, key := range mod.Order {
		fi := mod.Funcs[key]
		kept := fi.Calls[:0]
		for _, c := range fi.Calls {
			if _, ok := mod.Funcs[c.Callee]; ok {
				kept = append(kept, c)
			}
		}
		fi.Calls = kept
	}
	return mod
}

// collectCalls records every statically-resolved call inside the body,
// attributing calls made from nested function literals to the enclosing
// declaration (a closure handed to a worker pool still runs the enclosing
// function's work).
func collectCalls(fi *FuncInfo, info *types.Info) {
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil {
			return true
		}
		passesCtx := false
		for _, arg := range call.Args {
			if isCtxValue(info, arg) {
				passesCtx = true
				break
			}
		}
		fi.Calls = append(fi.Calls, Call{
			Callee:    callee.FullName(),
			Pos:       call.Pos(),
			PassesCtx: passesCtx,
		})
		return true
	})
}

// runModuleAnalyzers runs every enabled module-level analyzer over the graph
// and returns the raw findings.
func runModuleAnalyzers(mod *Module, enabled []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range enabled {
		if a.RunModule == nil {
			continue
		}
		pass := &ModulePass{Mod: mod, analyzer: a, findings: &findings}
		a.RunModule(pass)
	}
	return findings
}
