package lint

import (
	"go/ast"
	"go/types"
)

// Program is the whole-load view shared by every Pass of one Run: all
// loaded packages plus an index from function identity to declaration,
// which is what gives the dataflow analyzers (goroutinefree, ctxpoll,
// strictsync) cross-package reach.
//
// Identity is by (*types.Func).FullName, not by object pointer: each
// package of a load is type-checked independently, so package A's view
// of B.F is a different *types.Func than the one created when B itself
// was checked. FullName ("pkg/path.F", "(*pkg/path.T).M") is stable
// across those views, which makes the index safe to consult from any
// package of the load.
type Program struct {
	// Packages are the packages of the load, in Run order.
	Packages []*Package
	decls    map[string]*ProgFunc
	testonly *testonlyIndex // built by the first testonly pass
}

// ProgFunc pairs one function declaration with its defining package.
type ProgFunc struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// NewProgram indexes every function and method declared with a body in
// any package of the load.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Packages: pkgs, decls: make(map[string]*ProgFunc)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.decls[funcKey(obj)] = &ProgFunc{Pkg: pkg, Decl: fn, Obj: obj}
			}
		}
	}
	return prog
}

// funcKey is the load-stable identity of a function object.
func funcKey(obj *types.Func) string {
	if o := obj.Origin(); o != nil {
		obj = o // instantiations share their generic origin's declaration
	}
	return obj.FullName()
}

// DeclOf resolves a function object — possibly an imported package's
// independently-checked view of it — to its declaration anywhere in the
// load, or nil when the function is outside the load (stdlib, interface
// method, or a package not passed to Run).
func (pr *Program) DeclOf(obj *types.Func) *ProgFunc {
	if obj == nil {
		return nil
	}
	return pr.decls[funcKey(obj)]
}

// StaticCallee resolves a call to its compile-time *types.Func, or nil
// for builtins, conversions, function values and interface calls.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Interface method calls have no body to follow.
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	obj, _ := info.Uses[id].(*types.Func)
	return obj
}
