package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrderScope lists the package trees whose outputs must be
// order-deterministic: verdict documents, reports, wire marshals, and the
// /metrics surface all promise byte-identical replay (the WAL, the
// verdict cache, and the campaign engine depend on it), and Go randomizes
// map iteration order per run. A `range` over a map in these trees may
// aggregate (counters, set inserts, deletes — commutative, order-blind)
// but must not emit: append to a slice, write to a stream, or send on a
// channel, unless the keys are sorted afterwards in the same function or
// the loop carries an explicit `//maporder:ok` annotation.
var MapOrderScope = []string{
	"scarecrow/internal/winapi",
	"scarecrow/internal/winsim",
	"scarecrow/internal/core",
	"scarecrow/internal/trace",
	"scarecrow/internal/analysis",
	"scarecrow/internal/service",
	"scarecrow/internal/campaign",
	"scarecrow/internal/store",
	"scarecrow/internal/synth",
	"scarecrow/internal/front",
	"scarecrow/internal/deter",
}

// MapOrder extends the virtualclock determinism contract to iteration
// order: map ranges that feed ordered output must sort first.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid map iteration order from flowing into verdict, report, marshal, or /metrics output (sort the keys first)",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	if pass.Pkg == nil || !packagePathIn(pass.Pkg.Path(), MapOrderScope) {
		return nil
	}
	for _, f := range pass.Files {
		okLines := mapOrderAnnotations(pass.Fset, f)
		// bodies collects every function body in the file so a range
		// statement can be matched to its innermost enclosing function.
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			}
			return true
		})

		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if mapTypeOf(pass, rng.X) == nil {
				return true
			}
			if okLines[pass.Fset.Position(rng.For).Line] {
				return true
			}
			if !rangeBodyEmits(pass, rng) {
				return true
			}
			if sortCallAfter(pass, bodies, rng) {
				return true
			}
			pass.Reportf(rng.For, "iteration order of %s flows into ordered output; collect and sort the keys first (or annotate //maporder:ok if order is irrelevant)",
				nodeString(pass.Fset, rng.X))
			return true
		})
	}
	return nil
}

// mapOrderAnnotations returns the line numbers suppressed by a
// //maporder:ok comment: the comment's own line and the line after it
// (so the annotation may trail the for statement or precede it).
func mapOrderAnnotations(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, "maporder:ok") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// mapTypeOf returns the map type ranged over, or nil when the expression
// is not a map.
func mapTypeOf(pass *Pass, x ast.Expr) *types.Map {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return nil
	}
	m, _ := tv.Type.Underlying().(*types.Map)
	return m
}

// rangeBodyEmits reports whether the loop body produces ordered output:
// appends to a slice declared outside the loop, writes through a
// formatter/writer/encoder, assigns into a slice element, or sends on a
// channel. Commutative aggregation — map writes, counters, deletes,
// min/max folds — does not count.
func rangeBodyEmits(pass *Pass, rng *ast.RangeStmt) bool {
	emits := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if emits {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			emits = true
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
					if appendTargetOutsideLoop(pass, n, rng) {
						emits = true
					}
				}
			}
			for _, lhs := range n.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if tv, ok := pass.TypesInfo.Types[idx.X]; ok {
						if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
							emits = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if isOrderedSink(pass, n) {
				emits = true
			}
		}
		return !emits
	})
	return emits
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[ident].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTargetOutsideLoop reports whether the append assignment grows a
// variable declared outside the range statement — accumulation that
// escapes the loop in iteration order. A field target (x.f, x.f.g)
// escapes when its root variable x does.
func appendTargetOutsideLoop(pass *Pass, assign *ast.AssignStmt, rng *ast.RangeStmt) bool {
	for _, lhs := range assign.Lhs {
		for sel, ok := lhs.(*ast.SelectorExpr); ok; sel, ok = lhs.(*ast.SelectorExpr) {
			lhs = sel.X
		}
		ident, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(ident)
		if obj == nil {
			continue
		}
		if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
			return true
		}
	}
	return false
}

// isOrderedSink reports whether the call writes to an ordered output
// stream: fmt's print family, Write/WriteString/... methods (writers,
// string builders, buffers), and Encode methods (JSON, gob, SSE frames).
func isOrderedSink(pass *Pass, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		name := fn.Name()
		return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
			strings.HasPrefix(name, "Sprint") || strings.HasPrefix(name, "Append")
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo", "Encode":
		return fn.Type().(*types.Signature).Recv() != nil
	}
	return false
}

// sortCallAfter reports whether the innermost function body enclosing the
// range statement calls into package sort or slices after the loop — the
// canonical collect-then-sort pattern:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
func sortCallAfter(pass *Pass, bodies []*ast.BlockStmt, rng *ast.RangeStmt) bool {
	var enclosing *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= rng.Pos() && rng.End() <= b.End() {
			if enclosing == nil || b.Pos() > enclosing.Pos() {
				enclosing = b
			}
		}
	}
	if enclosing == nil {
		return false
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		var obj types.Object
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			obj = pass.TypesInfo.Uses[fun.Sel]
		case *ast.Ident:
			obj = pass.TypesInfo.Uses[fun]
		}
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort", "slices":
				found = true
			}
		}
		return !found
	})
	return found
}
