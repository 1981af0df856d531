package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// globalwriteAnalyzer keeps mutable package-level knobs out of the module:
// an assignment (=, op=) or increment/decrement whose target is a
// package-level variable declared in a different package of this module is
// reported, including writes through its fields, elements and pointees.
// Such a write is a process-wide setting in disguise — it races with
// concurrent callers and can set a knob the code path never reads — so
// configuration belongs in the struct passed to the operation's entry point.
// Writes to a package's own variables are its business, and
// standard-library targets such as flag.Usage are out of scope.
var globalwriteAnalyzer = &Analyzer{
	Name:      "globalwrite",
	Doc:       "write to a package-level variable of another package in this module",
	RunModule: runGlobalwrite,
}

func runGlobalwrite(pass *ModulePass) {
	mod := pass.Mod
	for _, key := range mod.Order {
		fi := mod.Funcs[key]
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			var targets []ast.Expr
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok != token.DEFINE {
					targets = s.Lhs
				}
			case *ast.IncDecStmt:
				targets = []ast.Expr{s.X}
			}
			for _, lhs := range targets {
				if v := writtenGlobal(fi.Info, lhs); v != nil && v.Pkg().Path() != fi.Pkg.Path() && inModule(mod.Path, v.Pkg().Path()) {
					pass.Reportf(lhs.Pos(), "write to %s.%s, a package-level variable of another package; pass the setting to the entry point instead",
						v.Pkg().Name(), v.Name())
				}
			}
			return true
		})
	}
}

// writtenGlobal returns the package-level variable an assignment target
// writes into — directly, or through field selections, index expressions
// and dereferences rooted at it — or nil when the root is anything else.
func writtenGlobal(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if _, isField := info.Selections[x]; isField {
				e = x.X
				continue
			}
			return packageVar(info.Uses[x.Sel]) // qualified pkg.Name
		case *ast.Ident:
			return packageVar(info.Uses[x])
		default:
			return nil
		}
	}
}

// packageVar returns obj as a package-level variable, or nil.
func packageVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// inModule reports whether the import path lies in the module at modPath.
func inModule(modPath, path string) bool {
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}
