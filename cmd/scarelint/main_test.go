package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"scarecrow/internal/lint"
)

func TestListExitsClean(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
}

// TestRunOnOwnModule runs the full suite over the repository the test is
// part of; the tree must be clean (this is the same invariant CI enforces
// via `go run ./cmd/scarelint ./...`).
func TestRunOnOwnModule(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if code := run([]string{root + "/..."}); code != 0 {
		t.Fatalf("scarelint ./... = exit %d, want 0 (tree must be lint-clean)", code)
	}
}

// A package with findings exits 1 and prints each finding as one
// file:line:col: error: analyzer: message line.
func TestFindingsExitOne(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code := run([]string{"../../internal/lint/testdata/statuscheck"})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("scarelint on the statuscheck fixture = exit %d, want 1\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d findings, want 5:\n%s", len(lines), out)
	}
	want := regexp.MustCompile(`^\S+flagged\.go:\d+:\d+: error: statuscheck: result of c\.\w+ contains a winapi\.Status`)
	for _, line := range lines {
		if !want.MatchString(line) {
			t.Errorf("finding line %q does not match %s", line, want)
		}
	}
}
