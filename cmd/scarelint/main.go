// Command scarelint runs scarecrow's static-analysis suite (internal/lint)
// over the repository: a multichecker in the style of go vet whose
// analyzers enforce the simulation's consistency invariants at build time.
//
// Usage:
//
//	scarelint [-list] [packages]
//
// Packages default to ./... relative to the working directory. Every
// finding prints as one file:line:col: error: analyzer: message line.
//
// Exit codes: 0 clean, 1 findings, 2 load or usage failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scarecrow/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("scarelint", flag.ExitOnError)
	list := fs.Bool("list", false, "list available analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: scarelint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarelint:", err)
		return 2
	}
	moduleRoot, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarelint:", err)
		return 2
	}
	loader, err := lint.NewLoader(moduleRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarelint:", err)
		return 2
	}
	paths, err := loader.Expand(patterns, cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarelint:", err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "scarelint: no packages matched")
		return 2
	}

	var pkgs []*lint.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scarelint:", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarelint:", err)
		return 2
	}
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scarelint: %d error finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
