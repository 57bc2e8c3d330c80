package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The standard-library importer, with the FileSet its positions live in,
// is built once per test binary: type-checking std from GOROOT sources is
// most of a load's cost, and std never changes under a test. Module and
// fixture packages still load afresh on every newTestLoader.
var (
	stdOnce sync.Once
	stdFset *token.FileSet
	stdImp  types.Importer
)

// newTestLoader returns a fresh loader for the enclosing module that shares
// the test binary's standard-library importer. Like any Loader it is not
// safe for concurrent use, and neither is the shared importer: tests that
// call it must not run in parallel.
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("building loader: %v", err)
	}
	stdOnce.Do(func() { stdFset, stdImp = loader.Fset, loader.std })
	loader.Fset, loader.std = stdFset, stdImp
	return loader
}

// RunFixture loads the fixture package under testdata/<fixture> as if it
// had the given import path, runs one analyzer over it, and compares the
// diagnostics against `// want "regexp"` expectation comments, in the
// style of golang.org/x/tools/go/analysis/analysistest. Fixture files may
// import real module packages (e.g. scarecrow/internal/winapi); the
// loader resolves them against the enclosing module.
//
// Expectation syntax: a comment of the form
//
//	// want "regexp" "another regexp"
//
// declares that each listed pattern must match the message of a distinct
// diagnostic reported on that line. Quoted and backquoted Go string
// literals are both accepted. Lines without a want comment must produce
// no diagnostics.
func RunFixture(t *testing.T, a *Analyzer, fixture, importPath string) {
	t.Helper()
	loader := newTestLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatalf("resolving fixture dir: %v", err)
	}
	loader.AddPackageDir(importPath, dir)
	pkg, err := loader.Load(importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, pkg)
	used := make([]bool, len(diags))
	for _, w := range wants {
		matched := false
		for i, d := range diags {
			if used[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
	for i, d := range diags {
		if !used[i] {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := parseWantPatterns(text)
				if err != nil {
					t.Fatalf("%s:%d: bad want comment: %v", filepath.Base(pos.Filename), pos.Line, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", filepath.Base(pos.Filename), pos.Line, p, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// parseWantPatterns splits a want comment body into its Go string
// literals.
func parseWantPatterns(text string) ([]string, error) {
	var out []string
	rest := strings.TrimSpace(text)
	for rest != "" {
		var lit string
		switch rest[0] {
		case '"':
			end := -1
			for i := 1; i < len(rest); i++ {
				if rest[i] == '"' && rest[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated string in %q", rest)
			}
			var err error
			lit, err = strconv.Unquote(rest[:end+1])
			if err != nil {
				return nil, err
			}
			rest = strings.TrimSpace(rest[end+1:])
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated raw string in %q", rest)
			}
			lit = rest[1 : end+1]
			rest = strings.TrimSpace(rest[end+2:])
		default:
			return nil, fmt.Errorf("expected string literal at %q", rest)
		}
		out = append(out, lit)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no patterns")
	}
	return out, nil
}
