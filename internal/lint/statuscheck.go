package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// winapiPath is the import path of the simulated Win32 API surface whose
// types the analyzers key on.
const winapiPath = "scarecrow/internal/winapi"

// StatusCheck flags calls whose winapi.Status result is silently dropped:
// used as an expression statement, or launched via go/defer with nobody
// reading the result. Status is the simulation's Win32/NTSTATUS analogue;
// dropping one hides exactly the error-path divergence (access denied vs
// success, file-not-found vs found) that deceptive resources are built
// from. An explicit `_ =` assignment is treated as a deliberate,
// documented discard and is not flagged.
var StatusCheck = &Analyzer{
	Name: "statuscheck",
	Doc:  "flag calls whose winapi.Status result is silently discarded",
	Run:  runStatusCheck,
}

func runStatusCheck(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			var verb string
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
				verb = "silently discarded"
			case *ast.GoStmt:
				call = s.Call
				verb = "discarded by the go statement"
			case *ast.DeferStmt:
				call = s.Call
				verb = "discarded by the defer statement"
			}
			if call == nil {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call]
			if !ok || !resultCarriesStatus(tv.Type) {
				return true
			}
			pass.Reportf(call.Pos(), "result of %s contains a winapi.Status that is %s; handle it or assign it explicitly",
				nodeString(pass.Fset, call.Fun), verb)
			return true
		})
	}
	return nil
}

// resultCarriesStatus reports whether a call result type is, or contains,
// the named type winapi.Status.
func resultCarriesStatus(t types.Type) bool {
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isWinapiStatus(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isWinapiStatus(t)
	}
}

func isWinapiStatus(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Status" && obj.Pkg() != nil && obj.Pkg().Path() == winapiPath
}

// packagePathIn reports whether path is pkg or one of its subpackages,
// for any prefix in scopes.
func packagePathIn(path string, scopes []string) bool {
	for _, s := range scopes {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}
