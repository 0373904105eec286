// Shared type- and expression-classification helpers for the
// analyzers.
package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// trylockPkgSuffix matches this module's try-lock package whether the
// import path is "listset/internal/trylock" (the real module) or a
// testdata variant.
const trylockPkgSuffix = "internal/trylock"

// isTrylockType reports whether named is trylock.SpinLock,
// trylock.MutexLock or the trylock.TryLocker interface.
func isTrylockType(named *types.Named) bool {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	if !strings.HasSuffix(obj.Pkg().Path(), trylockPkgSuffix) {
		return false
	}
	switch obj.Name() {
	case "SpinLock", "MutexLock", "TryLocker":
		return true
	}
	return false
}

// trylockMethod reports whether call is a Lock/TryLock/Unlock/
// LockContended method call whose receiver is one of the trylock
// package's lock types, and returns the receiver expression and
// method name.
func trylockMethod(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "TryLock", "Unlock", "LockContended":
	default:
		return nil, "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	recvType := selection.Recv()
	if ptr, isPtr := recvType.(*types.Pointer); isPtr {
		recvType = ptr.Elem()
	}
	named, isNamed := recvType.(*types.Named)
	if !isNamed || !isTrylockType(named) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// exprKey renders a canonical, purely syntactic key for a lock
// receiver expression, e.g. "prev.lock" or "preds[0].lock". Two
// occurrences with equal keys are assumed to denote the same lock —
// a heuristic that matches this codebase's style (lock expressions
// are short selector chains that are not reassigned while held).
// Expressions outside the supported shapes get a position-unique key,
// which makes any Lock on them unmatched by construction.
func exprKey(e ast.Expr) string {
	switch ee := e.(type) {
	case *ast.Ident:
		return ee.Name
	case *ast.SelectorExpr:
		return exprKey(ee.X) + "." + ee.Sel.Name
	case *ast.IndexExpr:
		return exprKey(ee.X) + "[" + exprKey(ee.Index) + "]"
	case *ast.BasicLit:
		return ee.Value
	case *ast.ParenExpr:
		return exprKey(ee.X)
	case *ast.StarExpr:
		return "*" + exprKey(ee.X)
	case *ast.CallExpr:
		return exprKey(ee.Fun) + "(…)"
	default:
		return fmt.Sprintf("‹expr@%d›", e.Pos())
	}
}
