// Package lint is scarecrow's in-tree static-analysis suite: a small,
// self-contained framework in the style of golang.org/x/tools/go/analysis
// (which is deliberately not imported so the repo builds with a bare
// toolchain and no module downloads) plus nine repo-specific analyzers
// that turn the simulation's runtime invariants into build errors:
//
//   - statuscheck: a winapi.Status result must never be silently dropped.
//   - hookcatalog: every string-literal API name at a hook-installation or
//     trigger-reporting site must exist in winapi's apiCatalog, and the
//     deceptive hook surface (core.HookedAPIs) must stay in sync with the
//     engine's handler table.
//   - virtualclock: simulation packages must use the virtual clock and the
//     machine's seeded RNG, never the wall clock or global math/rand.
//   - tracecomplete: trace.Event literals must populate the fields the
//     labrunner diffing keys on (Kind, PID, Image, Target).
//   - nopanic: the fault-contained packages (internal/analysis,
//     internal/core) must return errors, never panic — the lab's
//     containment promise is that no single run can kill a corpus sweep.
//   - exhaustive: String() switches and ...Names map literals must cover
//     every constant of their enum type, so extending an enum (a new
//     winapi.Status, a new trace.Kind) cannot silently break the
//     name-based wire encoding verdict documents rely on.
//   - lockfield: in the concurrent packages, struct fields declared after
//     a `mu sync.Mutex` are guarded by it and may only be touched from
//     the owning type's methods or under a visible <expr>.mu.Lock().
//   - apireach: whole-program reachability — every apiCatalog entry must
//     be callable from a Context method or a hook-dispatch table; a dead
//     entry is a camouflage gap malware can probe.
//   - maporder: map iteration order must never flow into verdict, report,
//     marshal, or /metrics output; sort the keys first.
//
// Run is one sequential pass: every analyzer over every requested
// package, then each whole-program RunModule hook once, with the
// module-local dependency closure of the requested packages in view.
//
// The paper's whole deception premise is consistency — one mismatched
// artifact (an unhooked API, a wrong timestamp) lets evasive malware see
// through the camouflage — so these invariants are enforced before the
// code ever runs. cmd/scarelint is the multichecker entry point.
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name for diagnostics, one-line
// documentation, and the functions that inspect the code.
type Analyzer struct {
	Name string
	Doc  string

	// Run, if set, inspects one requested package.
	Run func(*Pass) error

	// RunModule, if set, runs once after every requested package has been
	// analyzed — the whole-program half of an analyzer (e.g. apireach's
	// catalog-coverage verdict).
	RunModule func(*ModulePass) error
}

// Diagnostic is one finding, positioned in the analyzed source. Every
// finding is an invariant violation and fails a scarelint run.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional
// file:line:col: error: form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: error: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	loader *Loader
	sink   *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PackageSyntax returns the parsed files of another module-local package
// (the analyzed package itself included). Analyzers use it to read
// declarations that types alone do not expose — e.g. the apiCatalog map
// literal in internal/winapi.
func (p *Pass) PackageSyntax(path string) ([]*ast.File, error) {
	if p.Pkg != nil && path == p.Pkg.Path() {
		return p.Files, nil
	}
	pkg, err := p.loader.Load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Syntax, nil
}

// ModulePass is the whole-program view handed to RunModule after every
// requested package has been analyzed.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet

	// Packages are all loaded module-local packages (the requested set
	// plus their module-local dependency closure), sorted by import path.
	Packages []*Package

	// Requested reports whether a package path was explicitly requested
	// on the command line (as opposed to pulled in as a dependency).
	// Whole-program verdicts should only fire when their subject package
	// was requested, so a partial run cannot produce false positives.
	Requested map[string]bool

	sink *[]Diagnostic
}

// Reportf records a module-level diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full scarelint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		StatusCheck, HookCatalog, VirtualClock, TraceComplete, NoPanic,
		Exhaustive, LockField, APIReach, MapOrder,
	}
}

// Run executes the analyzers over the requested packages, then each
// analyzer's RunModule over the loaded module, and returns all
// diagnostics sorted by file position. Analyzer errors (not findings)
// abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	requested := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		if requested[pkg.Path] {
			continue
		}
		requested[pkg.Path] = true
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				loader:    pkg.loader,
				sink:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	loader := pkgs[0].loader
	var loaded []*Package
	for _, path := range loader.LoadedPaths() {
		loaded = append(loaded, loader.pkgs[path])
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer:  a,
			Fset:      loader.Fset,
			Packages:  loaded,
			Requested: requested,
			sink:      &diags,
		}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s: module analysis: %w", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// nodeString renders an AST node compactly for diagnostics ("c.CreateFile").
func nodeString(fset *token.FileSet, n ast.Node) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, n); err != nil {
		return "expression"
	}
	return sb.String()
}
