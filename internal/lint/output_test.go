package lint

import (
	"bytes"
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// loadFixtures loads the given fixture paths (plus their fixture
// imports) into one loader.
func loadFixtures(t *testing.T, paths ...string) *Loader {
	t.Helper()
	l := NewLoader()
	l.FixtureRoot = filepath.Join("testdata", "src")
	for _, path := range paths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
		if _, err := l.LoadDir(dir, path); err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
	}
	return l
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (regenerate with go test -run TestOutput -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output drifted from golden (regenerate with -update if intended)\ngot:\n%s", path, got)
	}
}

// TestOutputOrderingGolden pins the deterministic diagnostic order — by
// (file, line, column, analyzer, message) — across a multi-package,
// multi-analyzer run, in the text rendering.
func TestOutputOrderingGolden(t *testing.T) {
	l := loadFixtures(t, "ctxpoll", "streamflow", "strictsync", "strictsync/nowalker", "internal/hotcall")
	diags := Run(l.fixturePackages(), []*Analyzer{
		GoroutineFreeAnalyzer, StreamFlowAnalyzer, CtxPollAnalyzer, StrictSyncAnalyzer,
	})
	var buf bytes.Buffer
	WriteText(&buf, "", l.Fset, diags)
	checkGolden(t, "ordering.txt", buf.Bytes())

	// The golden pins the exact interleaving; this pins the invariant.
	var last token.Position
	var lastAnalyzer string
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		if last.Filename != "" {
			switch {
			case pos.Filename < last.Filename:
				t.Errorf("file order regression: %s after %s", pos.Filename, last.Filename)
			case pos.Filename == last.Filename && pos.Line < last.Line:
				t.Errorf("line order regression in %s: %d after %d", pos.Filename, pos.Line, last.Line)
			case pos.Filename == last.Filename && pos.Line == last.Line && pos.Column == last.Column &&
				d.Analyzer < lastAnalyzer:
				t.Errorf("analyzer order regression at %s", pos)
			}
		}
		last, lastAnalyzer = pos, d.Analyzer
	}
}

// TestOutputJSONGolden pins the -json schema.
func TestOutputJSONGolden(t *testing.T) {
	l := loadFixtures(t, "ctxpoll")
	diags := Run(l.fixturePackages(), []*Analyzer{CtxPollAnalyzer})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "", l.Fset, diags); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ctxpoll.json", buf.Bytes())
}

// TestOutputJSONEmpty pins the clean-run contract CI's jq gate relies
// on: an empty run is the JSON array [], not null.
func TestOutputJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "", token.NewFileSet(), nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Fatalf("empty diagnostics must encode as []: got %q", got)
	}
}

// TestOutputSARIFGolden pins the -sarif schema (SARIF 2.1.0 subset).
func TestOutputSARIFGolden(t *testing.T) {
	l := loadFixtures(t, "ctxpoll")
	diags := Run(l.fixturePackages(), []*Analyzer{CtxPollAnalyzer})
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "", l.Fset, Analyzers(), diags); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ctxpoll.sarif", buf.Bytes())
}

// TestApplyFixesGolden applies ctxpoll's suggested fixes to its own
// fixture and pins the fixed source. The fixed file must also parse and
// re-lint clean, which is the suggested-fix contract.
func TestApplyFixesGolden(t *testing.T) {
	l := loadFixtures(t, "ctxpoll")
	diags := Run(l.fixturePackages(), []*Analyzer{CtxPollAnalyzer})
	if len(diags) == 0 {
		t.Fatal("expected ctxpoll diagnostics to fix")
	}
	for _, d := range diags {
		if len(d.SuggestedFixes) == 0 {
			pos := l.Fset.Position(d.Pos)
			t.Fatalf("%s: ctxpoll diagnostic without a suggested fix", pos)
		}
	}
	fixed, err := ApplyFixes(l.Fset, diags)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join("testdata", "src", "ctxpoll", "ctxpoll.go")
	src, ok := fixed[name]
	if !ok {
		t.Fatalf("no fixed content for %s (have %v)", name, len(fixed))
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "fixed.go", src, parser.ParseComments); err != nil {
		t.Fatalf("fixed source does not parse: %v", err)
	}
	checkGolden(t, "ctxpoll_fixed.go.golden", src)

	// Re-linting the fixed source must produce zero ctxpoll diagnostics.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ctxpoll.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := NewLoader()
	l2.FixtureRoot = filepath.Join("testdata", "src")
	if _, err := l2.LoadDir(dir, "ctxpoll"); err != nil {
		t.Fatalf("reloading fixed source: %v", err)
	}
	if rediags := Run(l2.fixturePackages(), []*Analyzer{CtxPollAnalyzer}); len(rediags) != 0 {
		pos := l2.Fset.Position(rediags[0].Pos)
		t.Fatalf("fixed source still has %d diagnostic(s); first: %s: %s", len(rediags), pos, rediags[0].Message)
	}
}
