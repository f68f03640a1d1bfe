package consensus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose test, benchmark and file citations
// must resolve. ROADMAP.md and CHANGES.md are left out: they record history,
// which names tests deleted since.
var citedDocs = []string{
	"README.md",
	"DESIGN.md",
	"cmd/perfbench/NOTES.md",
	".claude/skills/verify/SKILL.md",
}

var citedName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)

// codeSpan matches a backticked span; citedFile picks out the spans that
// name a file by its extension.
var (
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	citedFile = regexp.MustCompile(`\.(?:go|json|md|sh|yml)$`)
)

// TestDocCitationsResolve: every Test…, Benchmark… or Fuzz… name that a
// document cites is declared as a top-level function in some _test.go
// file of the repository, and every backticked file name (a token ending
// in .go, .json, .md, .sh or .yml, outside fenced code blocks) is a path
// suffix of a file in the repository, so a renamed, moved or deleted file
// cannot leave a document pointing at nothing. Patterns (tokens with *, <
// or >) are skipped.
func TestDocCitationsResolve(t *testing.T) {
	declared := declaredTestFuncs(t, ".")
	files := repoFiles(t, ".")
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
		for _, m := range codeSpan.FindAllStringSubmatch(withoutFences(string(src)), -1) {
			path := strings.TrimPrefix(m[1], "./")
			if !citedFile.MatchString(path) || strings.ContainsAny(path, "*<>") {
				continue
			}
			if !hasPathSuffix(files, path) {
				t.Errorf("%s cites %s, which is no file of the repository", doc, m[1])
			}
		}
	}
}

// TestDesignInventoryCoversPackages: DESIGN.md §1 has a row for every
// directory that holds non-test Go files (outside testdata), and every
// directory a row names exists. A row's first cell names directories in
// backticks: `consensus` is the root package, and a pattern such as
// `cmd/*` covers each directory it matches.
func TestDesignInventoryCoversPackages(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src)
	start := strings.Index(doc, "## 1. Package inventory")
	end := strings.Index(doc, "## 2. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §1 package inventory before §2")
	}
	var rows []string
	for _, line := range strings.Split(doc[start:end], "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "| `") {
			for _, m := range codeSpan.FindAllStringSubmatch(cells[1], -1) {
				rows = append(rows, m[1])
			}
		}
	}
	var dirs []string // in walk order, so failures are reported in a stable order
	for _, f := range repoFiles(t, ".") {
		if strings.HasSuffix(f, ".go") && !strings.HasSuffix(f, "_test.go") && !strings.Contains("/"+f, "/testdata/") {
			dir := path.Dir(f)
			if dir == "." {
				dir = "consensus"
			}
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
	}
	named := make(map[string]bool)
	for _, dir := range dirs {
		for _, row := range rows {
			if ok, _ := path.Match(row, dir); ok {
				named[dir], named[row] = true, true
			}
		}
		if !named[dir] {
			t.Errorf("DESIGN.md §1 has no row for %s", dir)
		}
	}
	for _, row := range rows {
		if !named[row] {
			t.Errorf("DESIGN.md §1 has a row for %s, which holds no Go package", row)
		}
	}
}

// withoutFences blanks the fenced code blocks of a Markdown document, so
// that a fence's backticks cannot pair with an inline span's.
func withoutFences(doc string) string {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// hasPathSuffix reports whether some file's slash path is path or ends
// in "/"+path.
func hasPathSuffix(files []string, path string) bool {
	for _, f := range files {
		if f == path || strings.HasSuffix(f, "/"+path) {
			return true
		}
	}
	return false
}

// repoFiles returns the slash paths, relative to root, of every file
// under root except those in version control and benchmark build output.
func repoFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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
