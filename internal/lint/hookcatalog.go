package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// HookCatalog cross-checks every string-literal API name that flows into
// the hooking machinery against apiCatalog in internal/winapi/catalog.go,
// so a typo in a deceptive-resource hook fails the build instead of
// silently never firing (the runtime validation in InstallHook only
// triggers when the faulty path executes). Checked sites:
//
//   - the api argument of (*winapi.System).InstallHook and
//     InstallKernelHook, and of (*winapi.Context).invoke,
//     ReadFunctionPrologue and PrologueIntact;
//   - keys of map[string]winapi.HookHandler composite literals;
//   - elements of []string variables named HookedAPIs (the paper's 29-API
//     deceptive surface);
//   - string literals assigned to the API field of TriggerReport literals.
//
// It also enforces hook coverage: inside a function that both declares a
// map[string]winapi.HookHandler literal and ranges over a package-local
// HookedAPIs variable to install it, the map keys and the HookedAPIs
// elements must be exactly the same set. That turns the engine's runtime
// "no handler for hooked API" error into a compile-time diagnostic and
// keeps the hook surface from drifting out of sync with its handlers.
var HookCatalog = &Analyzer{
	Name: "hookcatalog",
	Doc:  "validate string-literal API names against winapi's apiCatalog and keep HookedAPIs in sync with handler tables",
	Run:  runHookCatalog,
}

// apiNameArg maps the winapi functions that accept an API name to the
// index of that argument.
var apiNameArg = map[string]int{
	"InstallHook":          1,
	"Hook":                 0,
	"InstallKernelHook":    0,
	"invoke":               0,
	"ReadFunctionPrologue": 0,
	"PrologueIntact":       0,
}

func runHookCatalog(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	if pass.Pkg.Path() != winapiPath && !importsWinapi(pass.Pkg) {
		return nil
	}
	files, err := pass.PackageSyntax(winapiPath)
	if err != nil {
		return err
	}
	catalog := make(map[string]bool) // name -> hookable
	for _, e := range catalogEntries(files) {
		catalog[e.name] = e.hookable
	}
	if len(catalog) == 0 {
		// The catalog declaration moved or changed shape; that must fail
		// loudly, not silently disable the analyzer.
		pass.Reportf(pass.Files[0].Package, "apiCatalog map literal not found in %s; hookcatalog cannot validate API names", winapiPath)
		return nil
	}

	// hookedVars maps a package-local []string var named HookedAPIs to its
	// literal elements (with positions), for the coverage check.
	hookedVars := make(map[types.Object][]apiName)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if spec, ok := n.(*ast.ValueSpec); ok {
				pass.checkHookedAPIsSpec(spec, catalog, hookedVars)
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pass.checkAPINameCall(n, catalog)
			case *ast.CompositeLit:
				if isHookHandlerMap(pass.TypesInfo, n) {
					pass.checkHandlerMapKeys(n, catalog)
				} else {
					pass.checkTriggerReport(n, catalog)
				}
			case *ast.FuncDecl:
				pass.checkHookCoverage(n, hookedVars)
			}
			return true
		})
	}
	return nil
}

type apiName struct {
	name string
	pos  ast.Node
}

func importsWinapi(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == winapiPath {
			return true
		}
	}
	return false
}

// catalogEntry is one apiCatalog key: the API name, its position, and
// whether its apiMeta marks it hookable.
type catalogEntry struct {
	name     string
	pos      token.Pos
	hookable bool
}

// catalogEntries reads the apiCatalog map literal out of the winapi
// package syntax, in source order.
func catalogEntries(files []*ast.File) []catalogEntry {
	var entries []catalogEntry
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range spec.Names {
				if name.Name != "apiCatalog" || i >= len(spec.Values) {
					continue
				}
				lit, ok := spec.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := stringLiteral(kv.Key); ok {
						entries = append(entries, catalogEntry{name: key, pos: kv.Key.Pos(), hookable: metaIsHookable(kv.Value)})
					}
				}
			}
			return true
		})
	}
	return entries
}

// metaIsHookable reads the hookable field from an apiMeta composite
// literal.
func metaIsHookable(v ast.Expr) bool {
	lit, ok := v.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "hookable" {
			if val, ok := kv.Value.(*ast.Ident); ok {
				return val.Name == "true"
			}
		}
	}
	return false
}

func stringLiteral(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// checkAPINameCall validates the literal API-name argument of hooking
// entry points.
func (p *Pass) checkAPINameCall(call *ast.CallExpr, catalog map[string]bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = p.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fun]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != winapiPath {
		return
	}
	argIdx, ok := apiNameArg[fn.Name()]
	if !ok || argIdx >= len(call.Args) {
		return
	}
	name, ok := stringLiteral(call.Args[argIdx])
	if !ok {
		return
	}
	hookable, known := catalog[name]
	switch {
	case !known:
		p.Reportf(call.Args[argIdx].Pos(), "API %q passed to %s is not in winapi's apiCatalog", name, fn.Name())
	case (fn.Name() == "InstallHook" || fn.Name() == "Hook") && !hookable:
		p.Reportf(call.Args[argIdx].Pos(), "API %q passed to %s is marked not hookable in winapi's apiCatalog", name, fn.Name())
	case fn.Name() == "InstallKernelHook" && !strings.HasPrefix(name, "Nt"):
		p.Reportf(call.Args[argIdx].Pos(), "API %q passed to InstallKernelHook is not an Nt* system call; kernel hooks cover the syscall gate only", name)
	}
}

// isHookHandlerMap reports whether the composite literal has type
// map[string]winapi.HookHandler.
func isHookHandlerMap(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	m, ok := types.Unalias(tv.Type).Underlying().(*types.Map)
	if !ok {
		return false
	}
	if b, ok := m.Key().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
		return false
	}
	named, ok := types.Unalias(m.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "HookHandler" && obj.Pkg() != nil && obj.Pkg().Path() == winapiPath
}

func (p *Pass) checkHandlerMapKeys(lit *ast.CompositeLit, catalog map[string]bool) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		name, ok := stringLiteral(kv.Key)
		if !ok {
			continue
		}
		if _, known := catalog[name]; !known {
			p.Reportf(kv.Key.Pos(), "hook handler key %q is not in winapi's apiCatalog", name)
		}
	}
}

// checkHookedAPIsSpec validates the elements of a []string variable named
// HookedAPIs and records them for the coverage check.
func (p *Pass) checkHookedAPIsSpec(spec *ast.ValueSpec, catalog map[string]bool, hookedVars map[types.Object][]apiName) {
	for i, ident := range spec.Names {
		if ident.Name != "HookedAPIs" || i >= len(spec.Values) {
			continue
		}
		lit, ok := spec.Values[i].(*ast.CompositeLit)
		if !ok {
			continue
		}
		obj := p.TypesInfo.Defs[ident]
		if obj == nil || !isStringSlice(obj.Type()) {
			continue
		}
		var names []apiName
		for _, elt := range lit.Elts {
			name, ok := stringLiteral(elt)
			if !ok {
				continue
			}
			names = append(names, apiName{name: name, pos: elt})
			hookable, known := catalog[name]
			if !known {
				p.Reportf(elt.Pos(), "hooked API %q is not in winapi's apiCatalog", name)
			} else if !hookable {
				p.Reportf(elt.Pos(), "hooked API %q is marked not hookable in winapi's apiCatalog", name)
			}
		}
		hookedVars[obj] = names
	}
}

func isStringSlice(t types.Type) bool {
	s, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// checkHookCoverage enforces the two-way HookedAPIs <-> handler-table
// correspondence inside one installation function.
func (p *Pass) checkHookCoverage(fn *ast.FuncDecl, hookedVars map[types.Object][]apiName) {
	if fn.Body == nil || len(hookedVars) == 0 {
		return
	}
	var ranged []apiName
	rangesHooked := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		var obj types.Object
		switch x := rng.X.(type) {
		case *ast.Ident:
			obj = p.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			obj = p.TypesInfo.Uses[x.Sel]
		}
		if names, ok := hookedVars[obj]; ok {
			rangesHooked = true
			ranged = append(ranged, names...)
		}
		return true
	})
	if !rangesHooked {
		return
	}
	mapKeys := make(map[string]bool)
	var keyNames []apiName
	var mapLit *ast.CompositeLit
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !isHookHandlerMap(p.TypesInfo, lit) {
			return true
		}
		if mapLit == nil {
			mapLit = lit
		}
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if name, ok := stringLiteral(kv.Key); ok {
					mapKeys[name] = true
					keyNames = append(keyNames, apiName{name: name, pos: kv.Key})
				}
			}
		}
		return true
	})
	if mapLit == nil {
		return
	}
	inHooked := make(map[string]bool, len(ranged))
	for _, n := range ranged {
		inHooked[n.name] = true
	}
	var missing []string
	for _, n := range ranged {
		if !mapKeys[n.name] {
			missing = append(missing, n.name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		p.Reportf(mapLit.Pos(), "hooked APIs have no handler in this table: %s", strings.Join(missing, ", "))
	}
	for _, k := range keyNames {
		if !inHooked[k.name] {
			p.Reportf(k.pos.Pos(), "handler for %q is not in HookedAPIs and is never installed by this loop", k.name)
		}
	}
}

// checkTriggerReport validates literal API names recorded in trigger
// reports (the IPC records the paper's Figure 5 statistics are built from).
func (p *Pass) checkTriggerReport(lit *ast.CompositeLit, catalog map[string]bool) {
	tv, ok := p.TypesInfo.Types[lit]
	if !ok {
		return
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok || named.Obj().Name() != "TriggerReport" {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "API" {
			continue
		}
		name, ok := stringLiteral(kv.Value)
		if !ok {
			continue
		}
		if _, known := catalog[name]; !known {
			p.Reportf(kv.Value.Pos(), "TriggerReport.API %q is not in winapi's apiCatalog", name)
		}
	}
}
