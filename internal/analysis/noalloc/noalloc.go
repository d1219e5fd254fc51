// Package noalloc structurally enforces the 0 allocs/op property of the
// runtime's steady-state paths. A function annotated with a
//
//	//mttkrp:noalloc
//
// line in its doc comment must not contain syntactic allocation sites:
// make/new/append, slice or map literals (and &T{} literals), closure
// literals, go statements, method-value captures, string concatenation
// or string<->slice conversions, or implicit interface conversions at
// call sites and assignments (boxing). The steady-state tests
// (TestPooledKernelsSteadyStateAllocFree, TestSweepAllSteadyStateAllocFree,
// TestTiledSteadyStateAllocFree and TestSparseSteadyStateAllocFree in
// internal/core, TestPoolDispatchSteadyStateAllocFree in internal/parallel)
// pin the property dynamically for fixed shapes; the annotation enforces
// it for every annotated function on every path, at vet time.
//
// Cold-path allocations that are part of the warmup contract (an arena
// growing a buffer the first time a shape is seen) are suppressed
// line-by-line with `//lint:ignore mttkrp/noalloc reason`, which keeps
// every intentional allocation in an annotated function visible and
// justified in the source.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags allocation sites in //mttkrp:noalloc functions.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "flag allocation sites (make/append/new, literals, closures, boxing) in functions annotated //mttkrp:noalloc",
	Run:  run,
}

// Directive is the annotation marking a function as steady-state
// allocation-free.
const Directive = "//mttkrp:noalloc"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !annotated(fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == Directive {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(e.Go, "go statement in //mttkrp:noalloc function allocates a goroutine")
		case *ast.FuncLit:
			pass.Reportf(e.Pos(), "closure literal in //mttkrp:noalloc function allocates; pre-bind it in a workspace frame")
			return false
		case *ast.CompositeLit:
			switch info.TypeOf(e).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(e.Pos(), "slice/map literal in //mttkrp:noalloc function allocates")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					pass.Reportf(e.Pos(), "&composite literal in //mttkrp:noalloc function allocates")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isString(info.TypeOf(e)) {
				pass.Reportf(e.OpPos, "string concatenation in //mttkrp:noalloc function allocates")
			}
		case *ast.SelectorExpr:
			checkMethodValue(pass, e)
		case *ast.CallExpr:
			checkCall(pass, e)
		case *ast.AssignStmt:
			checkBoxingAssign(pass, e)
		}
		return true
	})
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// boxes reports whether assigning an expression of type from into a slot
// of type to performs an allocating interface conversion.
func boxes(from, to types.Type) bool {
	if from == nil || to == nil || !isInterface(to) || isInterface(from) {
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// checkMethodValue flags method-value captures (f.m used as a value),
// which allocate a bound-method closure.
func checkMethodValue(pass *analysis.Pass, sel *ast.SelectorExpr) {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	// A direct call f.m(...) does not allocate; only the value form does.
	// The call case is distinguished by the parent expression, which
	// ast.Inspect does not expose — instead, treat the selector as a
	// value when its type is recorded as a function value in Types with
	// a use outside a call. Conservatively, only flag selectors whose
	// recorded type is a signature AND that are not immediately invoked;
	// the driver pre-marks invoked selectors.
	if invokedSelectors[sel] {
		return
	}
	pass.Reportf(sel.Pos(), "method value %s.%s in //mttkrp:noalloc function allocates a bound closure", exprString(sel.X), sel.Sel.Name)
}

// invokedSelectors marks selector expressions that are the function of a
// call, filled per-run before the walk. Keyed by node identity, so
// concurrent packages are safe as long as each package is one pass (the
// driver runs analyzers sequentially).
var invokedSelectors map[*ast.SelectorExpr]bool

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if invokedSelectors == nil {
			invokedSelectors = make(map[*ast.SelectorExpr]bool)
		}
		invokedSelectors[sel] = true
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make in //mttkrp:noalloc function allocates")
			case "new":
				pass.Reportf(call.Pos(), "new in //mttkrp:noalloc function allocates")
			case "append":
				pass.Reportf(call.Pos(), "append in //mttkrp:noalloc function may grow its backing array")
			}
			return
		}
	}
	// Conversions: string <-> byte/rune slice copies allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if from != nil && (isString(to) != isString(from)) && (isString(to) || isString(from)) {
			if _, slice := to.Underlying().(*types.Slice); slice || isString(to) {
				pass.Reportf(call.Pos(), "string conversion in //mttkrp:noalloc function allocates")
			}
		}
		return
	}
	// Boxing at call sites: concrete argument into interface parameter.
	// Calls through function-typed values — the simd dispatch pointers
	// are the hot case — have no callee object; the indirection itself is
	// allocation-free (a plain indirect CALL), so only the signature-level
	// checks apply, resolved from the value's type.
	callee := analysis.CalleeFunc(info, call)
	name := exprString(call.Fun)
	var sig *types.Signature
	if callee != nil {
		s, ok := callee.Type().(*types.Signature)
		if !ok {
			return
		}
		sig, name = s, callee.Name()
	} else {
		ft := info.TypeOf(call.Fun)
		if ft == nil {
			return
		}
		s, ok := ft.Underlying().(*types.Signature)
		if !ok {
			return
		}
		sig = s
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info.TypeOf(arg), pt) {
			pass.Reportf(arg.Pos(), "argument boxes into interface parameter of %s in //mttkrp:noalloc function", name)
		}
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= params.Len() {
		// The variadic backing slice itself allocates.
		pass.Reportf(call.Pos(), "variadic call of %s in //mttkrp:noalloc function allocates the argument slice", name)
	}
}

// checkBoxingAssign flags concrete-to-interface assignments.
func checkBoxingAssign(pass *analysis.Pass, st *ast.AssignStmt) {
	info := pass.TypesInfo
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i := range st.Rhs {
		if boxes(info.TypeOf(st.Rhs[i]), info.TypeOf(st.Lhs[i])) {
			pass.Reportf(st.Rhs[i].Pos(), "assignment boxes a concrete value into an interface in //mttkrp:noalloc function")
		}
	}
}

func exprString(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "expr"
}
