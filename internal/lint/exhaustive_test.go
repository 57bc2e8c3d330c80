package lint

import "testing"

func TestExhaustiveFixture(t *testing.T) {
	RunFixture(t, Exhaustive, "exhaustive", "scarecrow/internal/lint/testdata/exhaustive")
}

// The real targets the analyzer exists for must be clean: winapi's
// Status.String switch and trace's kindNames map both cover their enums.
func TestExhaustiveRealTargets(t *testing.T) {
	loader := newTestLoader(t)
	for _, path := range []string{
		"scarecrow/internal/winapi",
		"scarecrow/internal/trace",
		"scarecrow/internal/analysis",
	} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		diags, err := Run([]*Package{pkg}, []*Analyzer{Exhaustive})
		if err != nil {
			t.Fatalf("running exhaustive over %s: %v", path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: unexpected finding: %s", path, d)
		}
	}
}
