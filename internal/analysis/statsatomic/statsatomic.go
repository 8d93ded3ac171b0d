// Package statsatomic flags struct fields accessed both through
// sync/atomic functions and through plain loads or stores in the same
// package.
//
// The engine, the service and the fleet backend all keep shared counters
// (requests, coalesced waiters, per-worker batches) that are
// bumped from many goroutines and snapshotted from others. The safe
// patterns are "always atomic" or "an atomic.* typed field"; the broken
// pattern — atomic.AddInt64 on the write side, a bare read on the
// snapshot side — is exactly what the race detector only catches when a
// test happens to race, and what PR 7 fixed by hand once (charEntry.built
// became atomic.Bool). statsatomic makes the mixed pattern a finding: if
// any address of a struct field is passed to a sync/atomic function
// somewhere in the package, every plain selector access to that same
// field elsewhere is reported. Composite-literal initialization is
// exempt (construction happens before the value is shared); anything
// else deliberate — a read after all goroutines have joined, say — takes
// an //uopslint:ignore statsatomic annotation with the reason.
package statsatomic

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"uopsinfo/internal/analysis"
)

// Analyzer flags mixed atomic/plain access to the same struct field.
var Analyzer = &analysis.Analyzer{
	Name: "statsatomic",
	Doc: "flag struct fields accessed both via sync/atomic and via plain loads/stores " +
		"in the same package (the shared-counter discipline; use atomic.* types or " +
		"all-atomic access)",
	Run: run,
}

type access struct {
	pos token.Pos
}

func run(pass *analysis.Pass) error {
	atomicUses := map[*types.Var][]access{} // field → atomic access sites
	plainUses := map[*types.Var][]access{}  // field → plain access sites
	// Selector nodes consumed by an atomic call (the &s.f argument) must
	// not also count as plain accesses.
	atomicArgSels := map[*ast.SelectorExpr]bool{}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(pass, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				sel := addrOfFieldSel(pass, arg)
				if sel == nil {
					continue
				}
				fieldVar := selectedField(pass, sel)
				if fieldVar == nil {
					continue
				}
				atomicArgSels[sel] = true
				atomicUses[fieldVar] = append(atomicUses[fieldVar], access{pos: sel.Pos()})
			}
			return true
		})
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgSels[sel] {
				return true
			}
			fieldVar := selectedField(pass, sel)
			if fieldVar == nil {
				return true
			}
			plainUses[fieldVar] = append(plainUses[fieldVar], access{pos: sel.Pos()})
			return true
		})
	}

	fields := make([]*types.Var, 0, len(atomicUses))
	for fv := range atomicUses {
		fields = append(fields, fv)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
	for _, fv := range fields {
		plains := plainUses[fv]
		if len(plains) == 0 {
			continue
		}
		atomicAt := pass.Fset.Position(atomicUses[fv][0].pos)
		for _, p := range plains {
			pass.Reportf(p.pos,
				"plain access to field %s, which is accessed atomically at %s; use sync/atomic consistently or an atomic.%s-style typed field",
				fv.Name(), fmt.Sprintf("%s:%d", atomicAt.Filename, atomicAt.Line), suggestType(fv))
		}
	}
	return nil
}

// addrOfFieldSel unwraps &x.f (possibly parenthesized) to the selector.
func addrOfFieldSel(pass *analysis.Pass, e ast.Expr) *ast.SelectorExpr {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	ue, ok := e.(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return nil
	}
	inner := ue.X
	for {
		if p, ok := inner.(*ast.ParenExpr); ok {
			inner = p.X
			continue
		}
		break
	}
	sel, ok := inner.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel
}

// selectedField resolves a selector to the struct field it names, or nil.
func selectedField(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
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

// suggestType names the atomic wrapper type matching the field's type,
// for the finding message.
func suggestType(v *types.Var) string {
	if b, ok := v.Type().Underlying().(*types.Basic); ok {
		switch b.Kind() {
		case types.Int32:
			return "Int32"
		case types.Int64:
			return "Int64"
		case types.Uint32:
			return "Uint32"
		case types.Uint64:
			return "Uint64"
		case types.Bool:
			return "Bool"
		}
	}
	return "Int64"
}
