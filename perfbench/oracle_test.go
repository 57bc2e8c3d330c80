package main

import (
	"errors"
	"testing"

	"scarecrow/internal/analysis"
	"scarecrow/internal/malware"
	"scarecrow/internal/winsim"
)

// TestErrorVerdict checks that a verdict of the error category is told
// apart from a real one, even when a string field before the category
// spells out a category key.
func TestErrorVerdict(t *testing.T) {
	ls := labSet{}
	c := cell{Specimen: malware.CatalogNames()[0], Profile: string(winsim.ProfileBareMetalSandbox), Seed: 1}
	_, v, err := runReference(ls, c)
	if err != nil {
		t.Fatal(err)
	}
	if errorVerdict(v) {
		t.Errorf("%s: a %d-byte real verdict read as the error category", c.key(), len(v))
	}
	if s := verdictServed(c, v); s.failed {
		t.Errorf("%s: a real verdict served as failed", c.key())
	}

	bad := analysis.SampleResult{
		Specimen: &malware.Specimen{ID: `x","category":"survived`, Family: `"category":"error"`},
		Verdict:  analysis.Verdict{Category: analysis.VerdictError},
		Err:      errors.New("boom"),
	}
	ev, err := bad.MarshalVerdict()
	if err != nil {
		t.Fatal(err)
	}
	if !errorVerdict(ev) {
		t.Errorf("error verdict not recognised: %s", ev)
	}
	if s := verdictServed(c, ev); !s.failed {
		t.Error("an error verdict was served as a success")
	}
}
