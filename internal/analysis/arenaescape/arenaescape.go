// Package arenaescape flags arena-backed buffers that escape their
// region: slices leased from parallel.Arena (Float64/Ints) and arenas
// obtained from parallel.Workspace (Arena) that are stored into struct
// fields, package-level variables, or channels, or captured by a
// goroutine — all places that can outlive Workspace.Release, after which
// the backing memory is handed to the next same-shape request (the
// aliasing-bug class the pooled-buffer wire decode was hand-audited for;
// DESIGN.md §11).
//
// The analysis is intentionally shallow: it tracks values produced by a
// direct lease call (or a local variable assigned one, a reslice of one,
// or a composite literal wrapping one) within a single function.
// Helper-mediated stores (e.g. a constructor that both leases and
// registers a buffer) are the Workspace contract's job, not this
// analyzer's.
package arenaescape

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags arena-backed buffers escaping their region.
var Analyzer = &analysis.Analyzer{
	Name: "arenaescape",
	Doc:  "flag Workspace/Arena-leased buffers stored into fields, globals or channels, or captured by goroutines",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// isLeaseCall reports whether call leases region-scoped memory from the
// parallel runtime.
func isLeaseCall(info *types.Info, call *ast.CallExpr) bool {
	return analysis.MethodOn(info, call, analysis.ParallelPkg, "Float64", "Ints", "Arena")
}

// checkFunc walks one function body in source order, tracking
// arena-derived locals and reporting escapes.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	tracked := make(map[types.Object]bool)

	var derived func(e ast.Expr) bool
	derived = func(e ast.Expr) bool {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return tracked[info.Uses[v]]
		case *ast.CallExpr:
			return isLeaseCall(info, v)
		case *ast.SliceExpr:
			return derived(v.X)
		case *ast.UnaryExpr:
			return v.Op == token.AND && derived(v.X)
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if derived(elt) {
					return true
				}
			}
		}
		return false
	}

	// sinkStore classifies an assignment target for an arena-derived
	// value: struct field, package-level variable, or a new tracked
	// local.
	sinkStore := func(lhs ast.Expr) {
		switch t := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[t]; ok && sel.Kind() == types.FieldVal {
				pass.Reportf(t.Pos(), "arena-backed value stored into struct field %s may outlive its region; clear it before Workspace.Release", t.Sel.Name)
				return
			}
			if obj, ok := info.Uses[t.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				pass.Reportf(t.Pos(), "arena-backed value stored into package-level variable %s outlives its region", t.Sel.Name)
			}
		case *ast.Ident:
			obj := info.Defs[t]
			if obj == nil {
				obj = info.Uses[t]
			}
			if v, ok := obj.(*types.Var); ok {
				if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					pass.Reportf(t.Pos(), "arena-backed value stored into package-level variable %s outlives its region", t.Name)
					return
				}
				tracked[obj] = true
			}
		case *ast.IndexExpr:
			if base, ok := ast.Unparen(t.X).(*ast.Ident); ok {
				if v, ok := info.Uses[base].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					pass.Reportf(t.Pos(), "arena-backed value stored into package-level container %s outlives its region", base.Name)
				}
			}
		}
	}

	// goroutineCapture reports tracked variables referenced inside a
	// goroutine launched from this function.
	goroutineCapture := func(g *ast.GoStmt) {
		call := g.Call
		for _, arg := range call.Args {
			if derived(arg) {
				pass.Reportf(arg.Pos(), "arena-backed value passed to a goroutine may outlive its region")
			}
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && tracked[info.Uses[id]] {
					pass.Reportf(id.Pos(), "arena-backed value %s captured by a goroutine may outlive its region", id.Name)
				}
				return true
			})
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true // multi-value call assignment: sources never return tuples
			}
			for i, rhs := range st.Rhs {
				lhs := st.Lhs[i]
				if derived(rhs) {
					sinkStore(lhs)
				} else if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					// Reassignment to a non-arena value clears tracking.
					if obj := info.Uses[id]; obj != nil && tracked[obj] {
						delete(tracked, obj)
					}
				}
			}
		case *ast.SendStmt:
			if derived(st.Value) {
				pass.Reportf(st.Value.Pos(), "arena-backed value sent on a channel may outlive its region")
			}
		case *ast.GoStmt:
			goroutineCapture(st)
		}
		return true
	})
}
