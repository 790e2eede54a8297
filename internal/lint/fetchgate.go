package lint

import (
	"go/ast"
	"go/types"
)

// sitePkg is allowed to touch the network and the raw page wrapper: its
// Transport is the bottom of the one counted access path
//
//	site.Server → guard → site.Transport → pagecache.Cache → pagecache.Session
//
// and reports every access's traffic to the layer above, which counts it.
const sitePkg = "ulixes/internal/site"

// transportType is the sanctioned way to read a page: its Get and Head are
// what the page store and the materialized view count.
const transportType = "Transport"

// guardPkg is the per-host resilience layer (breakers, bulkheads, hedges).
// It sits beneath the Transport, which calls the origin through it, so its
// raw Get/Head calls are sanctioned.
const guardPkg = "ulixes/internal/guard"

// hypertextPkg defines WrapPage, the HTML→tuple wrapper; calling it outside
// internal/site means a page was obtained without being counted.
const hypertextPkg = "ulixes/internal/hypertext"

// httpClientFuncs are the package-level net/http entry points that open a
// connection.
var httpClientFuncs = map[string]bool{
	"Get": true, "Head": true, "Post": true, "PostForm": true,
}

// httpClientMethods are the net/http.Client methods that open a connection.
var httpClientMethods = map[string]bool{
	"Do": true, "Get": true, "Head": true, "Post": true, "PostForm": true,
}

// FetchGate enforces the cost model's soundness invariant: every page access
// flows through the one counted access path — a pagecache.Session over a
// page store over the site.Transport — whose resolve-once ledger is what
// makes the measured page count equal the paper's cost function. It flags,
// outside internal/site:
//
//   - net/http client calls (http.Get, (*http.Client).Do, …);
//   - direct page reads on internal/site servers (Server/MemSite/HTTPServer
//     Get and Head) — anything but the Transport's;
//   - direct calls to hypertext.WrapPage (wrapping HTML into page tuples
//     without the fetch being counted).
var FetchGate = &Analyzer{
	Name: "fetchgate",
	Doc: "page accesses must flow through the counted access path — a\n" +
		"pagecache.Session, or the site.Transport beneath it for code that\n" +
		"keeps its own §8 ledger; direct net/http client calls, Server/MemSite\n" +
		"page reads, and raw hypertext.WrapPage calls elsewhere make ExecStats\n" +
		"page counts unsound",
	IncludeTests: true,
	Run:          runFetchGate,
}

func runFetchGate(pass *Pass) {
	if pass.Pkg.PkgPath == sitePkg || pass.Pkg.PkgPath == sitePkg+"_test" ||
		pass.Pkg.PkgPath == guardPkg || pass.Pkg.PkgPath == guardPkg+"_test" {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pass.Pkg, call)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "net/http":
				if isMethod(obj) {
					if httpClientMethods[obj.Name()] && recvNamed(obj) == "Client" {
						pass.Reportf(call.Pos(), "direct net/http client call (*http.Client).%s bypasses the counted access path", obj.Name())
					}
				} else if httpClientFuncs[obj.Name()] {
					pass.Reportf(call.Pos(), "direct net/http client call http.%s bypasses the counted access path", obj.Name())
				}
			case sitePkg:
				if isMethod(obj) && (obj.Name() == "Get" || obj.Name() == "Head") && recvNamed(obj) != transportType {
					pass.Reportf(call.Pos(), "direct page read %s.%s bypasses the counted access path", recvNamed(obj), obj.Name())
				}
			case hypertextPkg:
				if pass.Pkg.PkgPath != hypertextPkg && pass.Pkg.PkgPath != hypertextPkg+"_test" && obj.Name() == "WrapPage" {
					pass.Reportf(call.Pos(), "direct hypertext.WrapPage call wraps a page that no counted fetch produced")
				}
			}
			return true
		})
	}
}

// calleeObject resolves the function or method object a call invokes, or nil
// for calls through function values and type conversions.
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fn].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := pkg.Info.Uses[fn.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

// isMethod reports whether a function object has a receiver.
func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// recvNamed returns the name of a method's receiver type, dereferencing
// pointers; empty for non-methods.
func recvNamed(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
