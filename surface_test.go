package consensus_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/internal/lint"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite surface.txt from the public packages and the commands")

// surfacePackages are the packages a downstream user imports.
var surfacePackages = []string{".", "scenario"}

// TestPublicSurface pins the public surface in surface.txt: every
// exported identifier of the root and scenario packages with its type
// (and, for a type declared there, its exported fields with their JSON
// names and its methods), then every flag each command registers. A
// change that adds or removes a settable value regenerates the file with
// -update-surface, and its diff shows the change.
func TestPublicSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the public packages skipped in -short mode")
	}
	got := renderSurface(t)
	if *updateSurface {
		if err := os.WriteFile("surface.txt", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("surface.txt")
	if err != nil {
		t.Fatalf("read surface.txt (regenerate with -update-surface): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the public surface drifted from surface.txt (regenerate with -update-surface if intended):\n%s",
			lineDiff(string(want), string(got)))
	}
}

func renderSurface(t *testing.T) []byte {
	t.Helper()
	l := lint.NewLoader()
	var b bytes.Buffer
	for _, dir := range surfacePackages {
		pkg, err := l.LoadDirAsModulePackage(".", dir)
		if err != nil {
			t.Fatal(err)
		}
		writePackageSurface(&b, pkg.Types)
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cmds {
		dir := filepath.Join("cmd", e.Name())
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			continue // a module of its own, not part of this one's surface
		}
		pkg, err := l.LoadDirAsModulePackage(".", dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range commandFlags(pkg) {
			fmt.Fprintf(&b, "%s: flag %s\n", filepath.ToSlash(dir), f)
		}
	}
	return b.Bytes()
}

// writePackageSurface writes one line per exported object of pkg, in
// name order, qualifying other packages' names by package name.
func writePackageSurface(b *bytes.Buffer, pkg *types.Package) {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, isType := obj.(*types.TypeName)
		if !isType || tn.IsAlias() {
			fmt.Fprintf(b, "%s: %s\n", pkg.Name(), types.ObjectString(obj, qual))
			continue
		}
		named := tn.Type().(*types.Named)
		under := named.Underlying()
		if st, ok := under.(*types.Struct); ok {
			fmt.Fprintf(b, "%s: type %s struct\n", pkg.Name(), name)
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				fmt.Fprintf(b, "%s: type %s struct, %s %s", pkg.Name(), name, f.Name(), types.TypeString(f.Type(), qual))
				if js, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
					fmt.Fprintf(b, " json:%q", js)
				}
				b.WriteByte('\n')
			}
		} else {
			fmt.Fprintf(b, "%s: type %s %s\n", pkg.Name(), name, types.TypeString(under, qual))
		}
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			if m := mset.At(i).Obj(); m.Exported() {
				fmt.Fprintf(b, "%s: %s\n", pkg.Name(), types.ObjectString(m, qual))
			}
		}
	}
}

// flagKinds are the flag package's flag definers, less any Var suffix
// (plain Var defines a flag of any flag.Value).
var flagKinds = map[string]bool{
	"Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
	"Int": true, "Int64": true, "String": true, "Text": true, "Uint": true, "Uint64": true, "": true,
}

// commandFlags returns "-name kind" for every flag a command defines
// through the flag package (flag.String, fs.Int, flag.DurationVar, …),
// sorted, so that moving a definition changes nothing.
func commandFlags(pkg *lint.Package) []string {
	var flags []string
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			kind, isVar := strings.CutSuffix(fn.Name(), "Var")
			arg := 0
			if isVar {
				arg = 1
			}
			if !flagKinds[kind] || len(call.Args) <= arg {
				return true
			}
			if kind == "" {
				kind = "value"
			}
			tv := pkg.Info.Types[call.Args[arg]]
			if tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			flags = append(flags, "-"+constant.StringVal(tv.Value)+" "+strings.ToLower(kind))
			return true
		})
	}
	sort.Strings(flags)
	return flags
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := make(map[string]int)
		for _, line := range strings.Split(s, "\n") {
			m[line]++
		}
		return m
	}
	w, g := count(want), count(got)
	var out strings.Builder
	for _, line := range strings.Split(want, "\n") {
		if g[line] == 0 {
			out.WriteString("- " + line + "\n")
		}
	}
	for _, line := range strings.Split(got, "\n") {
		if w[line] == 0 {
			out.WriteString("+ " + line + "\n")
		}
	}
	return out.String()
}
