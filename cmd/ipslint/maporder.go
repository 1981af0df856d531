package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporderAnalyzer flags `range` over a map whose nondeterministic iteration
// order can reach an ordered sink: formatted output, JSON encoding, an obs
// span attribute, an append to a slice declared outside the loop that is
// never sorted afterwards, or a floating-point accumulator declared outside
// the loop (`+=`, `-=`, `*=`, `/=`, or `x = x op …`): float arithmetic is
// not associative, so the sum's low bits follow map order.  This is the bug
// class that would break the byte-determinism of internal/obs manifests and
// the "identical output for any worker count" kernel contract.  Integer
// accumulation is exact in any order and exempt.  The blessed idiom —
// collect keys, sort, then iterate the sorted slice — is recognised and
// exempt: an appended-to slice that is passed to a sort.* or slices.* call
// after the loop does not count as a sink.
var maporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration order reaching an ordered sink (output, JSON, obs attrs, unsorted append, float accumulation)",
	Run:  runMaporder,
}

// maporderFmtFuncs are fmt package functions that emit output directly, in
// call order.  The Sprint* family is deliberately absent: it produces a
// value, and whether map order escapes is decided by where that value goes
// (an unsorted append is caught by the append rule; a metric key is
// order-free).
var maporderFmtFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// maporderAttrMethods are obs span attribute setters: attributes are
// recorded in call order and serialised into manifests.
var maporderAttrMethods = map[string]bool{
	"SetAttr": true, "SetString": true, "SetInt": true, "SetFloat": true,
}

func runMaporder(pass *Pass) {
	for _, file := range pass.Files {
		parents := parentMap(file)
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypeOf(rng.X); t == nil {
				return true
			} else if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, parents, rng)
			return true
		})
	}
}

// checkMapRange scans one map-range body for ordered sinks.
func checkMapRange(pass *Pass, parents map[ast.Node]ast.Node, rng *ast.RangeStmt) {
	body := enclosingFuncBody(parents, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			checkFloatAccumulation(pass, rng, as)
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "append" && isBuiltin(pass, fun) {
				checkAppendSink(pass, body, rng, call)
			}
		case *ast.SelectorExpr:
			if pkg := pkgNameOf(pass, fun.X); pkg != nil {
				switch {
				case pkg.Imported().Path() == "fmt" && maporderFmtFuncs[fun.Sel.Name]:
					pass.Reportf(call.Pos(), "fmt.%s inside map iteration: map order is nondeterministic; collect and sort keys first", fun.Sel.Name)
				case pkg.Imported().Path() == "encoding/json" && (fun.Sel.Name == "Marshal" || fun.Sel.Name == "MarshalIndent"):
					pass.Reportf(call.Pos(), "json.%s inside map iteration: output order follows map order; collect and sort keys first", fun.Sel.Name)
				}
				return true
			}
			if maporderAttrMethods[fun.Sel.Name] {
				pass.Reportf(call.Pos(), "%s inside map iteration: obs attributes serialise in call order; collect and sort keys first", fun.Sel.Name)
			} else if fun.Sel.Name == "Encode" && isJSONEncoder(pass, fun.X) {
				pass.Reportf(call.Pos(), "json Encode inside map iteration: output order follows map order; collect and sort keys first")
			}
		}
		return true
	})
}

// checkFloatAccumulation flags an assignment inside a map range that folds
// into a floating-point variable or field rooted outside the loop: a
// compound `+=`, `-=`, `*=` or `/=`, or a plain `x = … x …` whose right-hand
// side combines x with + - * /.
func checkFloatAccumulation(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	dst := ast.Unparen(as.Lhs[0])
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	case token.ASSIGN:
		if !arithOperand(as.Rhs[0], types.ExprString(dst)) {
			return
		}
	default:
		return
	}
	t := pass.TypeOf(dst)
	if t == nil {
		return
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&(types.IsFloat|types.IsComplex) == 0 {
		return
	}
	root := rootIdent(dst)
	if root == nil {
		return
	}
	obj := pass.Info.Uses[root]
	if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()) {
		return // declared inside the loop: each iteration starts afresh
	}
	if ix, ok := dst.(*ast.IndexExpr); ok && sameObject(pass, ix.Index, rng.Key) {
		return // indexed by the map key: each slot takes one iteration's value
	}
	pass.Reportf(as.Pos(), "floating-point accumulation into %s inside map iteration: the sum's low bits follow map order; iterate sorted keys", types.ExprString(dst))
}

// sameObject reports whether a and b are identifiers of the same object.
func sameObject(pass *Pass, a, b ast.Expr) bool {
	ai, ok := ast.Unparen(a).(*ast.Ident)
	if !ok || b == nil {
		return false
	}
	bi, ok := b.(*ast.Ident)
	if !ok {
		return false
	}
	ao, bo := pass.Info.Uses[ai], pass.Info.Defs[bi]
	if bo == nil {
		bo = pass.Info.Uses[bi]
	}
	return ao != nil && ao == bo
}

// arithOperand reports whether e, through + - * / and parentheses, has an
// operand that prints as name.
func arithOperand(e ast.Expr, name string) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			return arithOperand(x.X, name) || arithOperand(x.Y, name)
		}
		return false
	default:
		return types.ExprString(x) == name
	}
}

// checkAppendSink flags `dst = append(dst, ...)` inside a map range when dst
// escapes the iteration (a variable or field rooted outside the loop) and no
// sort.* or slices.* call touches it after the loop.
func checkAppendSink(pass *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	root := rootIdent(dst)
	if root == nil {
		return
	}
	obj := pass.Info.Uses[root]
	if obj == nil {
		obj = pass.Info.Defs[root]
	}
	if obj == nil {
		return
	}
	// A slice rooted inside the loop body dies with the iteration; only
	// escaping accumulators carry map order outward.
	if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
		return
	}
	name := types.ExprString(dst)
	if body != nil && sortedAfter(pass, body, rng, obj, name) {
		return
	}
	pass.Reportf(call.Pos(), "append to %s inside map iteration without a later sort; map order is nondeterministic", name)
}

// rootIdent peels selectors and indexes off an append destination down to
// its base identifier: d.Notes → d, bufs[i] → bufs.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether a sort.* or slices.* call appears after the
// range statement in the enclosing function body with the destination as an
// argument: the argument must reference the same root object and, for
// field/index destinations, print identically (sort.Strings(d.Notes) clears
// an append to d.Notes but not one to d.Stages).
func sortedAfter(pass *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := pkgNameOf(pass, sel.X)
		if pkg == nil {
			return true
		}
		if p := pkg.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(ast.Unparen(arg)) != name {
				continue
			}
			argRoot := rootIdent(arg)
			if argRoot != nil && pass.Info.Uses[argRoot] == obj {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

// enclosingFuncBody walks up to the nearest function literal or declaration.
func enclosingFuncBody(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for p := parents[n]; p != nil; p = parents[p] {
		if body := funcBody(p); body != nil {
			return body
		}
	}
	return nil
}

// pkgNameOf resolves an expression to the package it names, or nil.
func pkgNameOf(pass *Pass, e ast.Expr) *types.PkgName {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := pass.Info.Uses[id].(*types.PkgName)
	return pn
}

// isBuiltin reports whether the identifier resolves to a universe-scope
// builtin rather than a shadowing declaration.
func isBuiltin(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok
}

// isJSONEncoder reports whether e has type *encoding/json.Encoder.
func isJSONEncoder(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	return t.String() == "*encoding/json.Encoder"
}
