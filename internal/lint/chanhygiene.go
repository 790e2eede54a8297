package lint

import (
	"go/ast"
	"go/types"
)

// concurrentPkgs are the packages running goroutine-heavy pipelined
// execution, where an unbounded fan-out or an unguarded send can turn a
// large site into a goroutine explosion or a deadlock.
var concurrentPkgs = []string{
	"ulixes/internal/faults",
	"ulixes/internal/guard",
	"ulixes/internal/nalg",
	"ulixes/internal/matview",
	"ulixes/internal/site",
}

// ChanHygiene flags two concurrency smells in the evaluation packages:
//
//   - a `go` statement inside a data-bounded loop (range, or a for whose
//     condition involves len) with no semaphore acquire or done-channel
//     guard in sight — fan-out proportional to data size;
//   - a send inside a loop on an unbuffered channel made in the same
//     function, outside any select — it blocks forever once the consumer
//     stops (the exact bug site.Batch's guarded send prevents).
//
// Bounded worker pools (`for w := 0; w < workers; w++ { go … }`) and
// select-guarded sends pass.
var ChanHygiene = &Analyzer{
	Name: "chanhygiene",
	Doc: "concurrent evaluation packages (internal/faults, internal/nalg,\n" +
		"internal/matview, internal/site) must bound goroutine fan-out with\n" +
		"worker pools or semaphores and guard loop sends on unbuffered\n" +
		"channels with select",
	Run: runChanHygiene,
}

func runChanHygiene(pass *Pass) {
	if !pathIsOneOf(pass.Pkg.PkgPath, concurrentPkgs...) && !fixturePackage(pass.Pkg.PkgPath) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFuncBody(pass, fn.Body)
				return false
			}
			return true
		})
	}
}

// checkFuncBody applies both rules to one function declaration. The
// semaphore and unbuffered-channel facts are computed over the whole
// declaration (closures capture the enclosing function's channels); the
// loop-nesting context resets at every function-literal boundary, since a
// literal runs in its own control flow.
func checkFuncBody(pass *Pass, body *ast.BlockStmt) {
	guarded := hasSemaphoreAcquire(pass, body)
	unbuffered := unbufferedChans(pass, body)

	var walk func(n ast.Node, loops []ast.Stmt, inSelect bool)
	walk = func(n ast.Node, loops []ast.Stmt, inSelect bool) {
		switch x := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			walkChildren(x.Body, nil, false, walk)
			return
		case *ast.RangeStmt:
			walkChildren(x.Body, append(loops, ast.Stmt(x)), inSelect, walk)
			return
		case *ast.ForStmt:
			walkChildren(x.Body, append(loops, ast.Stmt(x)), inSelect, walk)
			return
		case *ast.SelectStmt:
			walkChildren(x.Body, loops, true, walk)
			return
		case *ast.GoStmt:
			if loop := dataBoundedLoop(pass, loops); loop != nil && !guarded {
				pass.Reportf(x.Pos(), "unbounded goroutine launch inside a data-bounded loop; use a worker pool or a semaphore")
			}
			// The goroutine body starts fresh control flow.
			walkChildren(x.Call, nil, false, walk)
			return
		case *ast.SendStmt:
			if len(loops) > 0 && !inSelect {
				if ch, ok := ast.Unparen(x.Chan).(*ast.Ident); ok {
					if obj := pass.Pkg.Info.Uses[ch]; obj != nil && unbuffered[obj] {
						pass.Reportf(x.Pos(), "unguarded send on unbuffered channel %q inside a loop; wrap it in a select with a done channel", ch.Name)
					}
				}
			}
			return
		}
		walkChildren(n, loops, inSelect, walk)
	}
	walkChildren(body, nil, false, walk)
}

// walkChildren applies walk to the direct children of n, threading the loop
// stack and select flag.
func walkChildren(n ast.Node, loops []ast.Stmt, inSelect bool, walk func(ast.Node, []ast.Stmt, bool)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		walk(c, loops, inSelect)
		return false
	})
}

// dataBoundedLoop returns the innermost loop whose trip count scales with
// data: any range loop, or a for loop whose condition mentions len(…).
func dataBoundedLoop(pass *Pass, loops []ast.Stmt) ast.Stmt {
	for i := len(loops) - 1; i >= 0; i-- {
		switch l := loops[i].(type) {
		case *ast.RangeStmt:
			return l
		case *ast.ForStmt:
			if l.Cond != nil && mentionsLen(pass, l.Cond) {
				return l
			}
		}
	}
	return nil
}

// mentionsLen reports whether an expression calls the len builtin.
func mentionsLen(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "len" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// hasSemaphoreAcquire reports whether the function body (including nested
// literals) contains a semaphore-style send of struct{}{}.
func hasSemaphoreAcquire(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if send, ok := n.(*ast.SendStmt); ok {
			if t, ok := pass.Pkg.Info.Types[send.Value]; ok {
				if st, ok := t.Type.Underlying().(*types.Struct); ok && st.NumFields() == 0 {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// unbufferedChans collects the objects of channels created in this body by
// a capacity-less make(chan T).
func unbufferedChans(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
				continue
			}
			if t, ok := pass.Pkg.Info.Types[call.Args[0]]; !ok || t.Type == nil {
				continue
			} else if _, isChan := t.Type.Underlying().(*types.Chan); !isChan {
				continue
			}
			if lhs, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Pkg.Info.Defs[lhs]; obj != nil {
					out[obj] = true
				} else if obj := pass.Pkg.Info.Uses[lhs]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}
