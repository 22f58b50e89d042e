// Package ctxfirst enforces the session-API contract of DESIGN.md §8:
// the service and execution layers are context-first, so cancellation
// and deadlines reach every kernel run and every I/O path from one
// place.  In the API packages (serve, pipeline, dist, core), an
// exported function or method (on an exported type):
//
//   - that takes a context.Context must take it as the first parameter
//     (after the receiver);
//   - that takes no context must not conjure one with
//     context.Background()/context.TODO() inside — it is swallowing the
//     caller's cancellation and must accept a context instead.
//
// Test files are exempt throughout.
package ctxfirst

import (
	"go/ast"

	"repro/internal/analysis"
)

// apiPkgs are the package names under the §8 contract.
var apiPkgs = map[string]bool{
	"serve": true, "pipeline": true, "dist": true, "core": true,
}

// Analyzer is the context-first checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxfirst",
	Doc:  "DESIGN.md §8: exported API functions are context-first — ctx is the leading parameter, and no exported entrypoint fabricates its own background context",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !apiPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !exportedAPI(pass, fd) {
				continue
			}
			checkSignature(pass, fd)
		}
	}
	return nil
}

// exportedAPI reports whether fd is part of the package's exported
// surface: an exported function, or an exported method on an exported
// receiver type.
func exportedAPI(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	name := analysis.NamedTypeName(t)
	return name != "" && ast.IsExported(name)
}

func checkSignature(pass *analysis.Pass, fd *ast.FuncDecl) {
	ctxIndex := -1
	idx := 0
	for _, field := range fd.Type.Params.List {
		isCtx := analysis.IsContextType(pass.TypesInfo.TypeOf(field.Type))
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtx && ctxIndex < 0 {
			ctxIndex = idx
		}
		idx += n
	}
	switch {
	case ctxIndex > 0:
		pass.Reportf(fd.Name.Pos(), "exported %s.%s takes context.Context at parameter %d: the §8 contract puts ctx first", pass.Pkg.Name(), fd.Name.Name, ctxIndex)
	case ctxIndex < 0:
		checkConjuredContext(pass, fd)
	}
}

// checkConjuredContext flags context.Background()/TODO() passed to a
// call inside a context-free exported function.  Returning a stored or
// default context (the Run.Context() getter pattern) stays legal: only
// use as a call argument is the smell.
func checkConjuredContext(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := arg.(*ast.CallExpr)
			if !ok || !pass.PkgFuncCall(inner, "context", "Background", "TODO") {
				continue
			}
			pass.Reportf(inner.Pos(), "exported %s.%s passes a fabricated context downstream: accept a context.Context as its first parameter instead (DESIGN.md §8)", pass.Pkg.Name(), fd.Name.Name)
		}
		return true
	})
}
