package lint

import "testing"

// In scope, the layout convention is enforced: guarded accesses outside
// the owning type's methods need a visible lock on the same base.
func TestLockFieldInScope(t *testing.T) {
	RunFixture(t, LockField, "lockfield", "scarecrow/internal/service/lintfixture")
}

// Out of scope, the analyzer stays silent.
func TestLockFieldOutOfScope(t *testing.T) {
	RunFixture(t, LockField, "lockfield_out", "scarecrow/internal/lint/testdata/lockfield_out")
}

// The real concurrent packages must already satisfy their own invariant.
func TestLockFieldCleanOnScope(t *testing.T) {
	loader := newTestLoader(t)
	for _, path := range LockFieldScope {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		diags, err := Run([]*Package{pkg}, []*Analyzer{LockField})
		if err != nil {
			t.Fatalf("running lockfield on %s: %v", path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
