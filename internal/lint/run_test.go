package lint

import (
	"reflect"
	"testing"
)

// Two runs over the same packages must produce identical diagnostics —
// no map order may leak nondeterminism into the output. The first two runs
// use fully fresh loaders, each type-checking std on its own; the rest
// share the test binary's std importer.
func TestRunIsDeterministic(t *testing.T) {
	freshLoader := func() *Loader {
		root, err := FindModuleRoot(".")
		if err != nil {
			t.Fatal(err)
		}
		loader, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		return loader
	}
	run := func(loader *Loader) []Diagnostic {
		loader.AddPackageDir("scarecrow/internal/service/lintfixture", fixtureDir(t, "maporder"))
		pkg, err := loader.Load("scarecrow/internal/service/lintfixture")
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run([]*Package{pkg}, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}
	first := run(freshLoader())
	if len(first) == 0 {
		t.Fatal("expected findings from the maporder fixture")
	}
	for i, loader := range []*Loader{freshLoader(), newTestLoader(t), newTestLoader(t)} {
		if again := run(loader); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs:\n%v\nvs\n%v", i+2, again, first)
		}
	}
}

// Diagnostics must only be reported for requested packages, even though
// loading them type-checks their dependencies too.
func TestRunReportsOnlyRequestedPackages(t *testing.T) {
	loader := newTestLoader(t)
	pkg, err := loader.Load("scarecrow/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("diagnostic outside the clean requested package: %s", d)
	}
	// The dependency closure was still loaded: winapi is cached.
	found := false
	for _, p := range loader.LoadedPaths() {
		if p == winapiPath {
			found = true
		}
	}
	if !found {
		t.Error("dependency package was not loaded into the closure")
	}
}
