package consensus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose test and benchmark citations must
// resolve. ROADMAP.md and CHANGES.md are left out: they record history,
// which names tests deleted since.
var citedDocs = []string{
	"README.md",
	"DESIGN.md",
	"cmd/perfbench/NOTES.md",
	".claude/skills/verify/SKILL.md",
}

var citedName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)

// TestDocCitationsResolve: every Test…, Benchmark… or Fuzz… name that a
// document cites is declared as a top-level function in some _test.go
// file of the repository, so a renamed or deleted test cannot leave a
// document pointing at nothing.
func TestDocCitationsResolve(t *testing.T) {
	declared := declaredTestFuncs(t, ".")
	for _, doc := range citedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedName.FindAllString(string(src), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
		}
	}
}

// declaredTestFuncs returns the names of the top-level functions of every
// _test.go file under root, skipping hidden and build-output directories.
func declaredTestFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	declared := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}
