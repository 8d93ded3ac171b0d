// Package detrange flags range statements over maps whose iteration order
// can reach an ordered sink.
//
// Go randomizes map iteration order, so a map range that appends to a
// slice, writes to an encoder or io.Writer, concatenates strings,
// accumulates floating-point values (rounding makes float addition
// order-sensitive) or sends on a channel produces different bytes on
// different runs — the single most likely way to silently break the
// repository's byte-identical-XML guarantee. The analyzer considers a map
// range clean when its loop body only performs order-insensitive work
// (map writes, integer accumulation, deletes, per-key lookups) or when
// every slice it appends to is passed to a sort or slices call later in
// the same function (the ubiquitous collect-then-sort idiom). Everything
// else is a finding: either restructure with a sort, or annotate the loop
// with //uopslint:ignore detrange <reason> stating why the operation is
// commutative.
//
// The analysis is intraprocedural: a helper that sorts its argument, or a
// method call with hidden ordered effects, is not tracked. The former
// needs an annotation; the latter is the reviewer's job.
package detrange

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"uopsinfo/internal/analysis"
)

// Analyzer flags nondeterministic map iteration feeding ordered sinks.
var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc: "flag range-over-map whose iteration order reaches an ordered sink " +
		"(append without sort, writers/encoders, string/float accumulation, channel sends); " +
		"guards the byte-identical-output contract",
	Run: run,
}

// sinkMethods are method names that emit to an ordered destination.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "EncodeElement": true, "EncodeToken": true,
	"Print": true, "Printf": true, "Println": true,
}

// sinkFmtFuncs are the ordered-output functions of package fmt. Fprint*
// take the destination as their first argument; the rest write to stdout.
var sinkFmtFuncs = map[string]int{
	"Print": -1, "Printf": -1, "Println": -1,
	"Fprint": 0, "Fprintf": 0, "Fprintln": 0,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, funcBody *ast.BlockStmt) {
	ast.Inspect(funcBody, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if eff := analyzeLoop(pass, rs, funcBody); eff != "" {
			pass.Reportf(rs.Pos(),
				"range over map %s in nondeterministic order %s; sort before the ordered step, or annotate //uopslint:ignore detrange <reason> if commutative",
				types.ExprString(rs.X), eff)
		}
		return true
	})
}

// analyzeLoop scans one map-range body for order-sensitive effects and
// returns a description of the first one found ("" = clean).
func analyzeLoop(pass *analysis.Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt) string {
	var effect string
	report := func(desc string) {
		if effect == "" {
			effect = desc
		}
	}
	// appendTargets collects `x = append(x, ...)`-style targets (and
	// counter-indexed slice writes) declared outside the loop; they are
	// clean only if sorted after the loop.
	appendTargets := map[string]token.Pos{}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, rs, n, appendTargets, report)
		case *ast.SendStmt:
			report("and sends on a channel")
		case *ast.CallExpr:
			checkCall(pass, rs, n, report)
		}
		return true
	})

	for _, chain := range sortedKeys(appendTargets) {
		if !sortedAfter(pass, funcBody, rs, chain) {
			report(fmt.Sprintf("and appends to %s, which is never sorted afterwards in this function", chain))
		}
	}
	return effect
}

func checkAssign(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt, appendTargets map[string]token.Pos, report func(string)) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}

		// x = append(x, ...): sortable-after collect idiom.
		if rhs != nil && isAppendCall(pass, rhs) {
			if chain := exprChain(lhs); chain != "" && declaredOutside(pass, lhs, rs) {
				appendTargets[chain] = as.Pos()
			}
			continue
		}

		lhsType := pass.TypesInfo.TypeOf(lhs)

		// Accumulation: s += v (or s = s + v) is order-sensitive for
		// strings always and for floats through rounding.
		accumulates := as.Tok == token.ADD_ASSIGN ||
			(as.Tok == token.ASSIGN && rhs != nil && selfBinaryOp(lhs, rhs))
		if accumulates && declaredOutside(pass, lhs, rs) {
			switch {
			case isString(lhsType):
				report("and concatenates into string " + types.ExprString(lhs))
			case isFloat(lhsType):
				report("and accumulates floating-point value " + types.ExprString(lhs) +
					" (float addition is not associative)")
			}
		}

		// out[i] = v with a loop-carried counter index places elements
		// in iteration order; treat like an append target.
		if idx, ok := lhs.(*ast.IndexExpr); ok && as.Tok == token.ASSIGN {
			if _, isSlice := typeUnderlying(pass, idx.X).(*types.Slice); isSlice {
				if id, ok := idx.Index.(*ast.Ident); ok && modifiedWithin(pass, rs.Body, id) &&
					declaredOutside(pass, idx.X, rs) {
					if chain := exprChain(idx.X); chain != "" {
						appendTargets[chain] = as.Pos()
					}
				}
			}
		}
	}
}

func checkCall(pass *analysis.Pass, rs *ast.RangeStmt, call *ast.CallExpr, report func(string)) {
	// Ordered package-level functions: fmt.Print*/Fprint*, io.WriteString,
	// io.Copy.
	if obj := calleeObj(pass, call); obj != nil && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "fmt":
			if argIdx, ok := sinkFmtFuncs[obj.Name()]; ok {
				if argIdx < 0 || (argIdx < len(call.Args) && declaredOutside(pass, call.Args[argIdx], rs)) {
					report("and writes via fmt." + obj.Name())
				}
				return
			}
		case "io":
			if (obj.Name() == "WriteString" || obj.Name() == "Copy") &&
				len(call.Args) > 0 && declaredOutside(pass, call.Args[0], rs) {
				report("and writes via io." + obj.Name())
				return
			}
		}
	}
	// Ordered methods (writers, encoders, loggers) on values that outlive
	// the iteration; a buffer created inside the loop body is per-key
	// state and therefore fine.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sinkMethods[sel.Sel.Name] {
		if pass.TypesInfo.Selections[sel] != nil && declaredOutside(pass, sel.X, rs) {
			report(fmt.Sprintf("and calls %s.%s", types.ExprString(sel.X), sel.Sel.Name))
		}
	}
}

// sortedAfter reports whether a sort or slices call after the loop
// references the given expression chain in the same function.
func sortedAfter(pass *analysis.Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, chain string) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || found {
			return true
		}
		obj := calleeObj(pass, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if p := obj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if containsChain(arg, chain) {
				found = true
				break
			}
		}
		return true
	})
	return found
}

// --- small syntactic/type helpers ---

// exprChain renders a pure ident/selector chain ("h.cfg.LongCopies"), or ""
// for anything more complex.
func exprChain(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprChain(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return exprChain(e.X)
	}
	return ""
}

func containsChain(e ast.Expr, chain string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if expr, ok := n.(ast.Expr); ok && exprChain(expr) == chain {
			found = true
		}
		return !found
	})
	return found
}

// rootObj resolves the leftmost identifier of an expression.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether the root of e is declared outside the
// range statement (unresolvable roots conservatively count as outside).
func declaredOutside(pass *analysis.Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	obj := rootObj(pass, e)
	if obj == nil {
		return true
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// modifiedWithin reports whether the object behind id is assigned or
// incremented inside the node.
func modifiedWithin(pass *analysis.Pass, node ast.Node, id *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	modified := false
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			if x, ok := n.X.(*ast.Ident); ok && pass.TypesInfo.Uses[x] == obj {
				modified = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if x, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Uses[x] == obj {
					modified = true
				}
			}
		}
		return !modified
	})
	return modified
}

func isAppendCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// selfBinaryOp reports whether rhs is a binary expression with lhs as an
// operand (x = x + v).
func selfBinaryOp(lhs, rhs ast.Expr) bool {
	bin, ok := rhs.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	chain := exprChain(lhs)
	return chain != "" && (exprChain(bin.X) == chain || exprChain(bin.Y) == chain)
}

func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func typeUnderlying(pass *analysis.Pass, e ast.Expr) types.Type {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func sortedKeys(m map[string]token.Pos) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
