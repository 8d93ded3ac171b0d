// Package seqretain enforces the measurement-sequence no-retention
// contract on Runner-shaped implementations.
//
// Runners outlive each measurement (a run's forks measure many kernels,
// and the fleet worker keeps its runners across requests), and
// measure.Harness hands them its callers' kernels: Harness.Measure
// passes the kernel straight to CopiesRunner.RunCopies, or the copies
// it materializes to Runner.Run. The callers own those slices. A Runner
// (local simulator, remote fleet client, or any future backend) that
// squirrels one away would alias memory its owner reuses or rewrites,
// and a long-lived runner would pin every kernel it has seen. The doc
// comments on measure.Runner and measure.CopiesRunner state this;
// seqretain checks it.
//
// The check is structural so it works on any package without importing
// measure (pipesim cannot import it — measure imports pipesim): in every
// method named Run, RunCopies or Measure that takes a slice parameter,
// storing that parameter — or a reslice of it — into a struct field, a map
// or slice element reachable from one, or a package-level variable is a
// finding. Copies (append(own, seq...), copy(own, seq), encoding the
// contents) are fine.
package seqretain

import (
	"go/ast"
	"go/types"

	"uopsinfo/internal/analysis"
)

// Analyzer flags Runner-shaped methods that retain their sequence slice.
var Analyzer = &analysis.Analyzer{
	Name: "seqretain",
	Doc: "forbid Run/RunCopies/Measure methods from storing a sequence slice parameter in a field " +
		"or global (the measure.Runner no-retention contract: callers own the sequences " +
		"they hand to long-lived runners)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			if n := fd.Name.Name; n != "Run" && n != "RunCopies" && n != "Measure" {
				continue
			}
			params := sliceParams(pass, fd)
			if len(params) == 0 {
				continue
			}
			checkRetention(pass, fd, params)
		}
	}
	return nil
}

// sliceParams returns the objects of fd's slice-typed parameters.
func sliceParams(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				out[obj] = true
			}
		}
	}
	return out
}

func checkRetention(pass *analysis.Pass, fd *ast.FuncDecl, params map[types.Object]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			var rhs ast.Expr
			switch {
			case len(as.Rhs) == len(as.Lhs):
				rhs = as.Rhs[i]
			case len(as.Rhs) == 1:
				rhs = as.Rhs[0]
			default:
				continue
			}
			obj := aliasedParam(pass, rhs, params)
			if obj == nil {
				continue
			}
			if where := retainingDest(pass, lhs); where != "" {
				pass.Reportf(as.Pos(),
					"%s stores its sequence parameter %s in %s; the harness reuses sequence backing arrays, so runners must not retain them (copy instead)",
					fd.Name.Name, obj.Name(), where)
			}
		}
		return true
	})
}

// aliasedParam returns the slice parameter e aliases, if any: the
// parameter itself, a reslice of it, an append to it (same backing array
// when capacity suffices), or a composite literal carrying one of those.
func aliasedParam(pass *analysis.Pass, e ast.Expr, params map[types.Object]bool) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil && params[obj] {
			return obj
		}
	case *ast.ParenExpr:
		return aliasedParam(pass, e.X, params)
	case *ast.SliceExpr:
		return aliasedParam(pass, e.X, params)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
				return aliasedParam(pass, e.Args[0], params)
			}
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if obj := aliasedParam(pass, v, params); obj != nil {
				return obj
			}
		}
	}
	return nil
}

// retainingDest describes the destination if assigning to lhs would
// retain the value beyond the call: a struct field, an element of a
// container reachable from one, or a package-level variable. Assignments
// to locals are fine (they die with the call).
func retainingDest(pass *analysis.Pass, lhs ast.Expr) string {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		if s := pass.TypesInfo.Selections[lhs]; s != nil && s.Kind() == types.FieldVal {
			return "field " + lhs.Sel.Name
		}
	case *ast.IndexExpr:
		if inner := retainingDest(pass, lhs.X); inner != "" {
			return "an element of " + inner
		}
	case *ast.StarExpr:
		return retainingDest(pass, lhs.X)
	case *ast.ParenExpr:
		return retainingDest(pass, lhs.X)
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[lhs]
		if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
			return "package-level variable " + v.Name()
		}
	}
	return ""
}
