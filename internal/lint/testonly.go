package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnlyAnalyzer keeps exported code that only tests reach out of the
// internal packages. It reports an exported func, method, type, var or
// const declared in a non-test file of an internal/ package when no
// non-test file of the module references it (a declaration's mentions of
// itself, such as a recursive call or a method receiver, do not count).
// Uses are counted over the whole module however few packages the run
// loads — LoadModule walks into cmd/perfbench, the nested benchmark
// module, so its uses count too — and uses from _test.go files never
// count, so one package, ./... and -tests give the same verdict.
//
// A method whose name and signature match a method of an interface in
// the program or its imports (MarshalJSON, ServeHTTP, String) is reached
// through that interface and is not reported. A declaration whose doc
// comment carries //lint:testhelper <reason> is waived; a waiver without
// a reason, or on a declaration that non-test code uses, is reported.
var TestOnlyAnalyzer = &Analyzer{
	Name: "testonly",
	Doc:  "flags exported internal/ identifiers that only _test.go files reference",
	Run:  runTestOnly,
}

// testonlyIndex is the program-wide view testonly needs, built once per
// Run: the identifiers non-test code references, and the shapes of every
// interface method.
type testonlyIndex struct {
	used, iface map[string]bool
	err         error
}

func runTestOnly(p *Pass) {
	if !strings.Contains("/"+p.Path+"/", "/internal/") {
		return
	}
	idx := p.Prog.testonlyIndex(p.Fset.Position(p.Files[0].Package).Filename)
	if idx.err != nil {
		p.Reportf(p.Files[0].Package, "cannot load the module to count uses: %v", idx.err)
		return
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				checkTestOnly(p, idx, d.Name, d.Doc)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						checkTestOnly(p, idx, s.Name, d.Doc, s.Doc)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							checkTestOnly(p, idx, name, d.Doc, s.Doc)
						}
					}
				}
			}
		}
	}
}

func checkTestOnly(p *Pass, idx *testonlyIndex, name *ast.Ident, docs ...*ast.CommentGroup) {
	obj := p.Info.Defs[name]
	if obj == nil || !name.IsExported() {
		return
	}
	display := name.Name
	kind := strings.Fields(types.ObjectString(obj, nil))[0] // func, var, const or type
	if fn, ok := obj.(*types.Func); ok {
		sig := fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			if idx.iface[methodShape(fn.Name(), sig)] {
				return
			}
			kind = "method"
			display = "(" + types.TypeString(recv.Type(), types.RelativeTo(p.Pkg)) + ")." + display
		}
	}
	used := idx.used[objKey(obj)]
	reason, waived := testhelperReason(docs)
	switch {
	case waived && reason == "":
		p.Reportf(name.Pos(), "//%s waiver on %s needs a reason", TestHelperDirective, display)
	case waived && used:
		p.Reportf(name.Pos(), "%s is waived with //%s but non-test code uses it: drop the waiver", display, TestHelperDirective)
	case !waived && !used:
		p.Reportf(name.Pos(), "exported %s %s is referenced only by tests, if at all: delete it, move it into the _test.go that uses it, or waive it with //%s <reason>",
			kind, display, TestHelperDirective)
	}
}

// testhelperReason finds a //lint:testhelper waiver in the doc comments
// and returns its reason.
func testhelperReason(docs []*ast.CommentGroup) (string, bool) {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if rest, ok := strings.CutPrefix(c.Text, "//"+TestHelperDirective); ok {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

// testonlyIndex builds (once per Program) the use and interface index
// over the load plus, when the load is of a real module, every package
// of that module the load left out. file is a source file of the package
// being checked; it locates the module root.
func (pr *Program) testonlyIndex(file string) *testonlyIndex {
	if pr.testonly != nil {
		return pr.testonly
	}
	idx := &testonlyIndex{used: make(map[string]bool), iface: make(map[string]bool)}
	pr.testonly = idx
	pkgs := pr.Packages
	rest, err := restOfModule(pkgs, file)
	if err != nil {
		idx.err = err
		return idx
	}
	pkgs = append(pkgs[:len(pkgs):len(pkgs)], rest...)
	seen := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if !isTestFile(pkg.Fset, f) {
				collectUses(pkg.Info, f, idx.used)
			}
		}
		for _, tv := range pkg.Info.Types {
			addInterfaceShapes(tv.Type, idx.iface)
		}
		addScopeInterfaces(pkg.Types, seen, idx.iface)
	}
	addInterfaceShapes(types.Universe.Lookup("error").Type(), idx.iface)
	return idx
}

// restOfModule loads, without tests, the packages of the module holding
// file that pkgs lacks. A fixture load, whose import paths are not under
// the enclosing module's path, is its own whole program.
func restOfModule(pkgs []*Package, file string) ([]*Package, error) {
	root, err := ModuleRoot(file)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	have := make(map[string]bool)
	inModule := false
	for _, pkg := range pkgs {
		have[pkg.Dir] = true
		inModule = inModule || pkg.Path == mod || strings.HasPrefix(pkg.Path, mod+"/")
	}
	if !inModule {
		return nil, nil
	}
	return NewLoader().loadModule(root, have)
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// collectUses adds to used the key of every package-level object or
// method that f references, skipping each declaration's references to
// itself and method receivers.
func collectUses(info *types.Info, f *ast.File, used map[string]bool) {
	add := func(n ast.Node, self map[string]bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := objKey(info.Uses[id]); k != "" && !self[k] {
					used[k] = true
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			self := map[string]bool{objKey(info.Defs[d.Name]): true}
			add(d.Type, self)
			add(d.Body, self)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				self := make(map[string]bool)
				switch s := s.(type) {
				case *ast.TypeSpec:
					self[objKey(info.Defs[s.Name])] = true
				case *ast.ValueSpec:
					for _, name := range s.Names {
						self[objKey(info.Defs[name])] = true
					}
				}
				add(s, self)
			}
		}
	}
}

// objKey is the load-stable identity of a package-level object or a
// method, or "" for anything else (locals, fields, package names,
// universe objects).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return funcKey(fn)
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// methodShape renders a method's name and parameter and result types,
// package-qualified, so the same shape matches across independently
// type-checked views.
func methodShape(name string, sig *types.Signature) string {
	var b strings.Builder
	b.WriteString(name)
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("|")
		for i := 0; i < t.Len(); i++ {
			b.WriteString(types.TypeString(t.At(i).Type(), nil) + ",")
		}
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func addInterfaceShapes(t types.Type, shapes map[string]bool) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		shapes[methodShape(m.Name(), m.Type().(*types.Signature))] = true
	}
}

// addScopeInterfaces adds the named interfaces of pkg and of everything
// it imports, transitively: encoding/json's Marshaler, net/http's
// Handler and the like.
func addScopeInterfaces(pkg *types.Package, seen map[*types.Package]bool, shapes map[string]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			addInterfaceShapes(tn.Type(), shapes)
		}
	}
	for _, imp := range pkg.Imports() {
		addScopeInterfaces(imp, seen, shapes)
	}
}
