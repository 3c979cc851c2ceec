package govet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// nounknownpersist: no verdict-tier write may be reachable with a
// budget-degraded result. A call to (*store.Store).Put (the persistent
// tier) or (*memo.Cache).PutReport (the session's memory tier of
// reports) must be guarded — dominated by a condition that discriminates
// on an Unknown verdict, a budget Exhausted/Err probe, a persistability
// predicate, or an error-nil comparison. Without such a guard, a verdict
// produced under an exhausted budget could be written once and replayed
// forever (or, in memory, for the life of a server): the cache-poisoning
// failure the budget and the verdict store were built to exclude.
//
// Two guard shapes are recognised: the Put sits inside an if whose
// condition is a guard, or an earlier statement in the same block is an
// if with a guard condition whose body always leaves (return / continue
// / break / panic) — the early-return idiom.
var unknownPersistAnalyzer = &Analyzer{
	Name: "nounknownpersist",
	Code: CodeUnknownPersist,
	Doc:  "persistent store writes must be guarded against Unknown/exhausted verdicts",
	Run:  runUnknownPersist,
}

func runUnknownPersist(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isStorePut(info, call) {
				return true
			}
			if putIsGuarded(info, call, stack) {
				return true
			}
			p.Reportf(call.Pos(), CodeUnknownPersist,
				"store write is reachable without an Unknown/exhausted guard; gate it on the verdict (v != Unknown, err == nil, or a persistability predicate) so budget-degraded results are never cached")
			return true
		})
	}
}

// isStorePut matches the writes of the verdict tiers: method calls named
// Put on the persistent store (internal/store.Store) and PutReport on the
// memory tier (internal/memo.Cache), behind any pointers.
func isStorePut(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	var pkg, typ string
	switch sel.Sel.Name {
	case "Put":
		pkg, typ = "internal/store", "Store"
	case "PutReport":
		pkg, typ = "internal/memo", "Cache"
	default:
		return false
	}
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isTypeFrom(sig.Recv().Type(), pkg, typ)
}

// putIsGuarded walks the ancestor chain looking for a dominating guard.
func putIsGuarded(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	// Enclosing if-with-guard: the call lives in the body (or else arm —
	// `if v == Unknown { } else { put }` discriminates just as well) of
	// an if whose condition is a verdict guard.
	for _, anc := range stack {
		if ifs, ok := anc.(*ast.IfStmt); ok && isGuardExpr(info, ifs.Cond) {
			return true
		}
	}
	// Early-return idiom: in any enclosing block, a statement before the
	// one holding the call is an if-guard whose body always leaves.
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		// Find which statement of this block contains the call.
		idx := -1
		for j, st := range block.List {
			if st.Pos() <= call.Pos() && call.End() <= st.End() {
				idx = j
				break
			}
		}
		for j := 0; j < idx; j++ {
			ifs, ok := block.List[j].(*ast.IfStmt)
			if !ok || !isGuardExpr(info, ifs.Cond) {
				continue
			}
			if blockAlwaysLeaves(ifs.Body) {
				return true
			}
		}
	}
	return false
}

// isGuardExpr recognises verdict guards: any mention of an Unknown
// verdict, an Exhausted/Err budget probe, a *persistable* predicate, or
// a nil comparison against an error value.
func isGuardExpr(info *types.Info, cond ast.Expr) bool {
	if cond == nil {
		return false
	}
	guard := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if guard {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if x.Name == "Unknown" {
				guard = true
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				if nameIsGuardFunc(fun.Name) {
					guard = true
				}
			case *ast.SelectorExpr:
				if nameIsGuardFunc(fun.Sel.Name) {
					guard = true
				}
			}
		case *ast.BinaryExpr:
			if (x.Op == token.EQL || x.Op == token.NEQ) && (isNilIdent(x.X) || isNilIdent(x.Y)) {
				other := x.X
				if isNilIdent(x.X) {
					other = x.Y
				}
				if tv, ok := info.Types[other]; ok && typeIsError(tv.Type) {
					guard = true
				}
			}
		}
		return true
	})
	return guard
}

func nameIsGuardFunc(name string) bool {
	low := strings.ToLower(name)
	return low == "exhausted" || strings.Contains(low, "persistable")
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func typeIsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

// blockAlwaysLeaves reports whether the block's last statement
// unconditionally exits the surrounding flow.
func blockAlwaysLeaves(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
