package analysis

import (
	"go/ast"
	"go/types"
)

// NamedTypeName returns the name of t's (pointer-stripped) named type,
// or "" if t is not a named type.
func NamedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// MethodCallOn reports whether call is a method call with the given
// method name whose receiver's named type is recvType, and returns the
// receiver expression when it is.
func (p *Pass) MethodCallOn(call *ast.CallExpr, recvType, method string) (recv ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != method {
		return nil, false
	}
	fn, isFn := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return nil, false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return nil, false
	}
	if NamedTypeName(sig.Recv().Type()) != recvType {
		return nil, false
	}
	return sel.X, true
}

// PkgFuncCall reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now).
func (p *Pass) PkgFuncCall(call *ast.CallExpr, pkgPath string, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return p.TypesInfo.Uses[id]
}
