package lint

import (
	"go/ast"
	"go/types"
)

// APIReach proves, whole-program, that every apiCatalog entry in
// internal/winapi is actually callable: referenced by a Context method's
// invoke dispatch, a hook-handler dispatch table, a HookedAPIs surface
// declaration, or a hook-installation site somewhere in the module. An
// entry nobody can reach is a silent deception gap — the simulation
// advertises an API it never models a call to, which is exactly the kind
// of inconsistency evasive malware probes for.
//
// It is a module pass only: once every requested package has been
// analyzed, it reads the catalog out of winapi's syntax, unions the
// entries every loaded package can reach, and reports the dead entries at
// their catalog positions. The verdict only fires when internal/winapi
// itself was requested, so a partial run cannot produce false "dead
// entry" reports.
var APIReach = &Analyzer{
	Name:      "apireach",
	Doc:       "prove every winapi apiCatalog entry is callable from a Context method or hook-dispatch table (dead entries are camouflage gaps)",
	RunModule: runAPIReach,
}

func runAPIReach(mp *ModulePass) error {
	// Only judge catalog coverage when the catalog's own package was part
	// of the requested set; a run over one leaf package sees too few
	// reaching packages to call anything dead.
	if !mp.Requested[winapiPath] {
		return nil
	}
	var catalog []catalogEntry
	reached := make(map[string]bool)
	for _, pkg := range mp.Packages {
		if pkg.Path == winapiPath {
			catalog = catalogEntries(pkg.Syntax)
		} else if !importsWinapi(pkg.Types) {
			continue
		}
		collectReach(pkg, reached)
	}
	for _, entry := range catalog {
		if reached[entry.name] {
			continue
		}
		mp.Reportf(entry.pos, "apiCatalog entry %q is unreachable: no Context method, hook-dispatch table, or hook surface refers to it — a dead entry is a live camouflage gap", entry.name)
	}
	return nil
}

// collectReach adds to reached every catalog entry one package refers to.
func collectReach(pkg *Package, reached map[string]bool) {
	info := pkg.TypesInfo
	for _, f := range pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// API-name arguments of the dispatch and installation
				// entry points: invoke, InstallHook, InstallKernelHook,
				// ReadFunctionPrologue, PrologueIntact.
				var obj types.Object
				switch fun := n.Fun.(type) {
				case *ast.SelectorExpr:
					obj = info.Uses[fun.Sel]
				case *ast.Ident:
					obj = info.Uses[fun]
				}
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != winapiPath {
					return true
				}
				argIdx, ok := apiNameArg[fn.Name()]
				if !ok || argIdx >= len(n.Args) {
					return true
				}
				if name, ok := stringLiteral(n.Args[argIdx]); ok {
					reached[name] = true
				}
			case *ast.CompositeLit:
				// Keys of hook-dispatch tables (map[string]HookHandler).
				if !isHookHandlerMap(info, n) {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if name, ok := stringLiteral(kv.Key); ok {
							reached[name] = true
						}
					}
				}
			case *ast.ValueSpec:
				// Elements of declared hook surfaces ([]string HookedAPIs).
				for i, ident := range n.Names {
					if ident.Name != "HookedAPIs" || i >= len(n.Values) {
						continue
					}
					lit, ok := n.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					obj := info.Defs[ident]
					if obj == nil || !isStringSlice(obj.Type()) {
						continue
					}
					for _, elt := range lit.Elts {
						if name, ok := stringLiteral(elt); ok {
							reached[name] = true
						}
					}
				}
			}
			return true
		})
	}
}
