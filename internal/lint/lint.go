// Package lint is the project's static-analysis layer: a small,
// dependency-free analysis framework plus the analyzers that turn the
// repository's determinism, RNG-hygiene and hot-path contracts from
// conventions enforced by tests and review into contracts enforced by
// machine.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis (Analyzer, Pass, Diagnostic, a testdata-driven test harness
// keyed on "// want" comments) so that the analyzers can migrate to the
// upstream driver verbatim if the module ever takes on that dependency.
// Everything here is built on the standard library only — go/ast,
// go/types and the source importer — which keeps the module at zero
// external dependencies and the lint job runnable offline.
//
// Analyzers:
//
//   - detrange: flags `range` over a map whose loop body has
//     order-sensitive effects, unless the result is sorted afterwards or
//     the site carries a //lint:ordered waiver.
//   - rnghygiene: forbids global randomness (math/rand, math/rand/v2,
//     crypto/rand) and wall-clock time (time.Now and friends) in engine
//     packages; all randomness must flow through internal/rng derived
//     streams, all timing through virtual clocks. cmd/, examples/ and
//     internal/serve are allowlisted; internal/rng itself is the one
//     place allowed to touch math/rand/v2.
//   - hotalloc: functions annotated //consensus:hotpath must not contain
//     allocating constructs (make, new, growing append, closures,
//     interface boxing, string concatenation, fmt calls). A cold branch
//     inside a hot function can carry a //lint:alloc waiver.
//   - goroutinefree: no `go` statement may be reachable (through
//     static calls) from a //consensus:hotpath function.
//   - streamflow, ctxpoll, strictsync: derived RNG streams have one
//     owner, //consensus:longrun loops poll their context, and the
//     scenario schema stays in lock-step with its strict walkers.
//   - testonly: no exported identifier of an internal/ package may be
//     referenced only by tests, unless a //lint:testhelper waiver gives
//     the reason.
//
// Copies of sync primitives are left to go vet's copylocks pass, which
// CI runs on every push.
//
// See DESIGN.md §7 for the annotation and waiver policy.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directives recognized by the analyzers.
const (
	// HotpathDirective marks a function whose body must be free of
	// allocating constructs and goroutine launches. It goes in the
	// function's doc comment.
	HotpathDirective = "consensus:hotpath"
	// LongrunDirective marks a function whose loops may run for a long
	// time (round loops, worker drains, planners): every loop in it
	// without a statically-bounded trip count must poll its context. It
	// goes in the function's doc comment.
	LongrunDirective = "consensus:longrun"
	// SchemaDirective marks a struct type as a strict-schema root: every
	// struct reachable from it through exported fields is part of the
	// declarative spec surface checked by strictsync. It goes in the type
	// declaration's doc comment.
	SchemaDirective = "consensus:schema"
	// StrictWalkDirective marks a function as one of the strict-schema
	// walkers (decode/validate/expand/canonicalize/evaluate): strictsync
	// requires every exported schema field to be read somewhere in the
	// static call graph rooted at the walkers. It goes in the function's
	// doc comment.
	StrictWalkDirective = "consensus:strictwalk"
	// OrderedDirective waives a detrange diagnostic: the author asserts
	// the map iteration's effects are order-insensitive. Same line as the
	// `for` or the line directly above.
	OrderedDirective = "lint:ordered"
	// AllocDirective waives a hotalloc diagnostic: the author asserts the
	// allocating construct is a cold path (e.g. one-time growth to
	// steady-state capacity). Same line as the construct or the line
	// directly above.
	AllocDirective = "lint:alloc"
	// ConfinedDirective waives a streamflow diagnostic: the author asserts
	// the derived RNG stream, despite flowing into more than one lane
	// shape, is dynamically confined to a single goroutine at a time. Same
	// line as the Derive site (or the flagged sink) or the line above.
	ConfinedDirective = "lint:confined"
	// TestHelperDirective waives a testonly diagnostic: the author asserts
	// the exported declaration belongs in non-test code although only
	// tests reach it (a helper several packages' tests share, a reference
	// tests compare against, a paper quantity only a test computes). It
	// goes in the declaration's doc comment, followed by the reason.
	TestHelperDirective = "lint:testhelper"
)

// TextEdit is one byte-range replacement of a suggested fix. Pos..End is
// replaced by NewText; an insertion has Pos == End.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// SuggestedFix is one self-contained edit set fixing a diagnostic.
// Applying every edit of one fix (consensus-lint -fix) must leave the
// package building and the diagnostic gone.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// Diagnostic is one finding, positioned in the shared FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	// SuggestedFixes are machine-applicable resolutions, best first.
	SuggestedFixes []SuggestedFix
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the pass and reports diagnostics via pass.Reportf.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Path is the package's import path. Fixture packages loaded from
	// testdata use their path relative to testdata/src, so path-scoped
	// analyzers (rnghygiene) behave identically on fixtures and on the
	// real module.
	Path string
	Pkg  *types.Package
	Info *types.Info
	// Prog is the whole-load view: every package of the Run, plus the
	// cross-package static call graph (callgraph.go). Dataflow analyzers
	// (goroutinefree, ctxpoll, strictsync) use it to follow calls into
	// sibling packages of the same load.
	Prog *Program

	analyzer *Analyzer
	report   func(Diagnostic)

	// directives caches per-file comment lines for waiver lookups.
	directives map[*ast.File]map[int][]string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Report records a fully-formed diagnostic (used by analyzers that attach
// suggested fixes).
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.analyzer.Name
	p.report(d)
}

// fileOf returns the *ast.File containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// commentLines returns f's comment text indexed by line number.
func (p *Pass) commentLines(f *ast.File) map[int][]string {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]string)
	}
	if m, ok := p.directives[f]; ok {
		return m
	}
	m := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := p.Fset.Position(c.Slash).Line
			// A block comment may span lines; attribute every line of its
			// text so a waiver inside it is still found.
			for i, text := range strings.Split(c.Text, "\n") {
				m[line+i] = append(m[line+i], text)
			}
		}
	}
	p.directives[f] = m
	return m
}

// Waived reports whether a directive comment (e.g. //lint:ordered)
// appears on pos's line or the line directly above it.
func (p *Pass) Waived(pos token.Pos, directive string) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	lines := p.commentLines(f)
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, text := range lines[l] {
			if strings.Contains(text, "//"+directive) {
				return true
			}
		}
	}
	return false
}

// HasDirective reports whether the doc comment group carries the given
// directive: a comment line that is the directive itself, so prose that
// quotes a directive does not carry it.
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//"+directive {
			return true
		}
	}
	return false
}

// IsHotpath reports whether fn carries the //consensus:hotpath directive
// in its doc comment.
func IsHotpath(fn *ast.FuncDecl) bool {
	return HasDirective(fn.Doc, HotpathDirective)
}

// IsLongrun reports whether fn carries the //consensus:longrun directive
// in its doc comment.
func IsLongrun(fn *ast.FuncDecl) bool {
	return HasDirective(fn.Doc, LongrunDirective)
}

// FuncDisplayName renders fn for diagnostics: "Name" or "(Recv).Name".
func FuncDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	var b strings.Builder
	b.WriteString("(")
	writeTypeExpr(&b, fn.Recv.List[0].Type)
	b.WriteString(").")
	b.WriteString(fn.Name.Name)
	return b.String()
}

func writeTypeExpr(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.StarExpr:
		b.WriteString("*")
		writeTypeExpr(b, t.X)
	case *ast.IndexExpr:
		writeTypeExpr(b, t.X)
	case *ast.IndexListExpr:
		writeTypeExpr(b, t.X)
	default:
		b.WriteString("?")
	}
}

// declaredWithin reports whether obj is declared inside [lo, hi].
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() >= lo && obj.Pos() <= hi
}

// Analyzers returns the full suite in reporting order: the syntactic
// tier (detrange, rnghygiene, hotalloc) followed by the
// dataflow tier (goroutinefree, streamflow, ctxpoll, strictsync,
// testonly), which follows the cross-package static call graph and
// whole-program uses.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRangeAnalyzer,
		RNGHygieneAnalyzer,
		HotAllocAnalyzer,
		GoroutineFreeAnalyzer,
		StreamFlowAnalyzer,
		CtxPollAnalyzer,
		StrictSyncAnalyzer,
		TestOnlyAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer list ("detrange,hotalloc").
func ByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(all))
			for _, a := range all {
				known = append(known, a.Name)
			}
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies every analyzer to every package and returns the
// diagnostics in deterministic reporting order: sorted by (file, line,
// column, analyzer, message). Sorting by the position tuple — not by
// token.Pos, which encodes FileSet load order — keeps text, JSON and
// SARIF output byte-stable however the packages were enumerated.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				analyzer: a,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass)
		}
	}
	if len(pkgs) == 0 {
		return diags
	}
	fset := pkgs[0].Fset
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}
