package lint

import (
	"go/ast"
)

// requestPathPkgs are the packages on a query's request path, from the
// public API down to the fetch layer. Creating a fresh background context
// there severs the caller's deadline and cancellation: a hung fetch can
// outlive the request that asked for it, and graceful drains stop being
// bounded. Context must be threaded from the caller; the deliberate
// context-free compatibility shims carry a //lint:allow noctxbg directive.
var requestPathPkgs = []string{
	"ulixes",
	"ulixes/internal/changefeed",
	"ulixes/internal/engine",
	"ulixes/internal/faults",
	"ulixes/internal/guard",
	"ulixes/internal/nalg",
	"ulixes/internal/overload",
	"ulixes/internal/pagecache",
	"ulixes/internal/site",
	"ulixes/internal/standing",
}

// ctxRootFuncs are the context package entry points that mint a fresh,
// never-cancelled root context.
var ctxRootFuncs = map[string]bool{
	"Background": true,
	"TODO":       true,
}

// NoCtxBackground forbids minting root contexts in request-path packages,
// so request deadlines and disconnects propagate end to end.
var NoCtxBackground = &Analyzer{
	Name: "noctxbg",
	Doc: "request-path packages (the engine, the evaluators, the page stores\n" +
		"and the fetch layer) must not call context.Background or context.TODO;\n" +
		"thread the caller's context so deadlines and cancellation reach every\n" +
		"page access (documented shims carry //lint:allow noctxbg)",
	Run: runNoCtxBackground,
}

func runNoCtxBackground(pass *Pass) {
	if !pathIsOneOf(pass.Pkg.PkgPath, requestPathPkgs...) && !fixturePackage(pass.Pkg.PkgPath) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pass.Pkg, call)
			if obj == nil || obj.Pkg() == nil || isMethod(obj) {
				return true
			}
			if obj.Pkg().Path() == "context" && ctxRootFuncs[obj.Name()] {
				pass.Reportf(call.Pos(), "context.%s on the request path in %s severs the caller's deadline; thread ctx from the caller", obj.Name(), pass.Pkg.PkgPath)
			}
			return true
		})
	}
}
