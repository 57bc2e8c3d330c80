package lint

import "testing"

func TestHookCatalog(t *testing.T) {
	RunFixture(t, HookCatalog, "hookcatalog", "scarecrow/internal/lint/testdata/hookcatalog")
}

// TestHookCatalogOnRealEngine pins the invariant the analyzer was built
// for: the seed's 29-API deceptive surface in internal/core must stay in
// sync with winapi's catalog and the engine's handler table, with zero
// findings.
func TestHookCatalogOnRealEngine(t *testing.T) {
	loader := newTestLoader(t)
	for _, path := range []string{"scarecrow/internal/core", "scarecrow/internal/winapi"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		diags, err := Run([]*Package{pkg}, []*Analyzer{HookCatalog})
		if err != nil {
			t.Fatalf("running hookcatalog on %s: %v", path, err)
		}
		for _, d := range diags {
			t.Errorf("unexpected finding in %s: %s", path, d)
		}
	}
}
