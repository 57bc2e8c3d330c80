package lint

import (
	"path/filepath"
	"testing"
)

func TestLoaderTypeChecksModulePackages(t *testing.T) {
	loader := newTestLoader(t)
	pkg, err := loader.Load("scarecrow/internal/winapi")
	if err != nil {
		t.Fatalf("loading winapi: %v", err)
	}
	if pkg.Name != "winapi" {
		t.Fatalf("package name = %q, want winapi", pkg.Name)
	}
	if obj := pkg.Types.Scope().Lookup("Status"); obj == nil {
		t.Fatal("winapi.Status not found in type-checked package scope")
	}
	if len(pkg.Syntax) == 0 {
		t.Fatal("no syntax files recorded")
	}
	// Loading again returns the cached package.
	again, err := loader.Load("scarecrow/internal/winapi")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Fatal("second Load did not return the cached package")
	}
}

func TestExpandWalksModuleSkippingTestdata(t *testing.T) {
	loader := newTestLoader(t)
	paths, err := loader.Expand([]string{"./..."}, loader.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		seen[p] = true
	}
	for _, want := range []string{
		"scarecrow/internal/core",
		"scarecrow/internal/winapi",
		"scarecrow/internal/lint",
		"scarecrow/cmd/scarelint",
	} {
		if !seen[want] {
			t.Errorf("Expand(./...) missing %s", want)
		}
	}
	for p := range seen {
		if filepath.Base(p) == "testdata" || seen["scarecrow/internal/lint/testdata/statuscheck"] {
			t.Fatalf("Expand(./...) must skip testdata trees, got %s", p)
		}
	}
}

func TestExpandSinglePackageForms(t *testing.T) {
	loader := newTestLoader(t)
	for _, pattern := range []string{"./internal/core", "internal/core", "scarecrow/internal/core"} {
		paths, err := loader.Expand([]string{pattern}, loader.ModuleRoot)
		if err != nil {
			t.Fatalf("Expand(%q): %v", pattern, err)
		}
		if len(paths) != 1 || paths[0] != "scarecrow/internal/core" {
			t.Fatalf("Expand(%q) = %v, want [scarecrow/internal/core]", pattern, paths)
		}
	}
}
