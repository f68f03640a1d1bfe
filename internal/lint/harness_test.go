package lint

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wantToken extracts the quoted expectation patterns from a // want
// comment: backquoted or double-quoted regular expressions.
var wantToken = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one // want pattern anchored to a fixture line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// testAnalyzer loads the fixture packages under testdata/src/<path> and
// checks a's diagnostics against the fixtures' // want comments. Both
// directions are errors: a diagnostic with no matching want, and a want
// with no matching diagnostic (the analysistest contract).
func testAnalyzer(t *testing.T, a *Analyzer, paths ...string) {
	t.Helper()
	l := NewLoader()
	l.FixtureRoot = filepath.Join("testdata", "src")
	for _, path := range paths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
		if _, err := l.LoadDir(dir, path); err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
	}
	// Analyze the whole import closure — the requested fixtures plus any
	// fixture packages they pulled in — so cross-package analyzers see
	// every declaration and helper packages stay want-checked too.
	pkgs := l.fixturePackages()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			wants = append(wants, fileWants(t, pkg, f)...)
		}
	}
	for _, d := range Run(pkgs, []*Analyzer{a}) {
		pos := l.Fset.Position(d.Pos)
		if w := matchWant(wants, pos.Filename, pos.Line, d.Message); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %s", w.file, w.line, w.raw)
		}
	}
}

// fileWants parses the // want comments of one fixture file.
func fileWants(t *testing.T, pkg *Package, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // want comments are line comments only
			}
			rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
			if !ok {
				continue
			}
			pos := pkg.Fset.Position(c.Slash)
			toks := wantToken.FindAllString(rest, -1)
			if len(toks) == 0 {
				t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
			}
			for _, tok := range toks {
				pat := tok
				if tok[0] == '`' {
					pat = tok[1 : len(tok)-1]
				} else {
					var err error
					pat, err = strconv.Unquote(tok)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, tok, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: want pattern %s does not compile: %v", pos.Filename, pos.Line, tok, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: tok})
			}
		}
	}
	return out
}

// matchWant finds the first unmatched expectation on file:line whose
// pattern matches msg.
func matchWant(wants []*expectation, file string, line int, msg string) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

// fixturePackages returns every fixture package loaded so far — the
// packages requested via LoadDir plus the fixture imports they pulled in
// — sorted by import path.
func (l *Loader) fixturePackages() []*Package {
	paths := make([]string, 0, len(l.fixtures))
	for p := range l.fixtures {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, l.fixtures[p])
	}
	return out
}
