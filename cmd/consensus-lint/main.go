// Command consensus-lint runs the project's static-analysis suite
// (internal/lint): the syntactic tier (detrange, rnghygiene, hotalloc)
// and the dataflow tier (goroutinefree, streamflow, ctxpoll, strictsync,
// testonly): the machine-checked form of the determinism, RNG-hygiene,
// hot-path and no-test-only-exports contracts documented in DESIGN.md §7. Copies of sync primitives are go
// vet's copylocks pass.
//
// Usage:
//
//	go run ./cmd/consensus-lint ./...
//	go run ./cmd/consensus-lint -only detrange,hotalloc ./internal/rules
//	go run ./cmd/consensus-lint -json ./...   > lint.json
//	go run ./cmd/consensus-lint -sarif ./...  > lint.sarif
//	go run ./cmd/consensus-lint -fix ./...
//
// Patterns are module-relative: "./..." (or a bare "...") lints every
// package in the module; a directory argument lints that package alone.
// Diagnostics are reported in deterministic order — sorted by (file,
// line, column, analyzer, message) — so output is diffable and golden-
// testable. Exit codes: 0 clean, 1 diagnostics found, 2 usage or
// load/type error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/ignorecomply/consensus/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver, factored for tests: parse flags, load, lint,
// render. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("consensus-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only     = fs.String("only", "", "comma-separated analyzer subset (default: all)")
		tests    = fs.Bool("tests", false, "also lint in-package _test.go files")
		list     = fs.Bool("list", false, "list analyzers and exit")
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		sarifOut = fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log on stdout")
		fix      = fs.Bool("fix", false, "apply each diagnostic's first suggested fix in place")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "consensus-lint: -json and -sarif are mutually exclusive")
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.ByName(*only)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	loader := lint.NewLoader()
	loader.IncludeTests = *tests

	var pkgs []*lint.Package
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			loaded, err := loader.LoadModule(root)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			pkgs = append(pkgs, loaded...)
		case strings.HasSuffix(pat, "/..."):
			sub := filepath.Join(cwd, strings.TrimSuffix(pat, "/..."))
			loaded, err := loader.LoadModule(root)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			for _, p := range loaded {
				if p.Dir == sub || strings.HasPrefix(p.Dir, sub+string(filepath.Separator)) {
					pkgs = append(pkgs, p)
				}
			}
		default:
			dir := pat
			if !filepath.IsAbs(dir) {
				dir = filepath.Join(cwd, pat)
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil || strings.HasPrefix(rel, "..") {
				fmt.Fprintf(stderr, "consensus-lint: %s is outside the module\n", pat)
				return 2
			}
			pkg, err := loader.LoadDirAsModulePackage(root, dir)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	diags := lint.Run(pkgs, analyzers)
	fset := loader.Fset

	if *fix {
		fixed, err := lint.ApplyFixes(fset, diags)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		// Deterministic write + report order.
		names := make([]string, 0, len(fixed))
		for name := range fixed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := os.WriteFile(name, fixed[name], 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			fmt.Fprintf(stdout, "fixed %s\n", name)
		}
		// Diagnostics without a fix remain findings.
		var rest []lint.Diagnostic
		for _, d := range diags {
			if len(d.SuggestedFixes) == 0 {
				rest = append(rest, d)
			}
		}
		diags = rest
	}

	switch {
	case *jsonOut:
		if err := lint.WriteJSON(stdout, root, fset, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case *sarifOut:
		if err := lint.WriteSARIF(stdout, root, fset, analyzers, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	default:
		lint.WriteText(stdout, root, fset, diags)
	}

	if len(diags) > 0 {
		fmt.Fprintf(stderr, "consensus-lint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}
