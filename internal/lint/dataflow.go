package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the value-flow half of the dataflow layer: a generic forward
// worklist solver over the CFG and the escape lattice (local → stored →
// escaped) the flow-sensitive analyzers share.

// Fact is one analysis's abstract state at a program point. Facts are
// treated as immutable by the solver: Transfer and Join return fresh (or
// unchanged) values.
type Fact interface{}

// FlowClient defines one forward dataflow analysis over a CFG.
type FlowClient interface {
	// Entry is the fact at function entry.
	Entry() Fact
	// Transfer applies one CFG node (statement or control expression) to a
	// fact, returning the fact after the node.
	Transfer(f Fact, n ast.Node) Fact
	// Join merges the facts of two incoming edges.
	Join(a, b Fact) Fact
	// Equal reports whether two facts are the same (fixpoint test).
	Equal(a, b Fact) bool
}

// FlowResult carries the solved facts: In[b] holds at block entry, Out[b]
// after the block's last node.
type FlowResult struct {
	In, Out map[*Block]Fact
}

// Forward runs the client's analysis to fixpoint and returns the per-block
// facts. Unreachable blocks have nil facts. The solver is deterministic:
// blocks are processed in index order from a sorted worklist.
func (g *CFG) Forward(c FlowClient) *FlowResult {
	res := &FlowResult{In: map[*Block]Fact{}, Out: map[*Block]Fact{}}
	res.In[g.Entry] = c.Entry()
	work := []*Block{g.Entry}
	inWork := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		sort.Slice(work, func(i, j int) bool { return work[i].Index < work[j].Index })
		b := work[0]
		work = work[1:]
		inWork[b] = false

		f := res.In[b]
		for _, n := range b.Nodes {
			f = c.Transfer(f, n)
		}
		res.Out[b] = f
		for _, s := range b.Succs {
			var next Fact
			if old, ok := res.In[s]; ok {
				next = c.Join(old, f)
				if c.Equal(old, next) {
					continue
				}
			} else {
				next = f
			}
			res.In[s] = next
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return res
}

// EachFact replays the transfer function inside every reachable block,
// calling visit with the fact holding immediately BEFORE each node. This is
// how analyzers inspect individual statements after solving.
func (g *CFG) EachFact(c FlowClient, res *FlowResult, visit func(f Fact, n ast.Node)) {
	for _, b := range g.Blocks {
		f, ok := res.In[b]
		if !ok {
			continue // unreachable
		}
		for _, n := range b.Nodes {
			visit(f, n)
			f = c.Transfer(f, n)
		}
	}
}

// ---------------------------------------------------------------------------
// Escape lattice

// EscapeClass classifies how far a local variable's value travels.
type EscapeClass int

const (
	// EscLocal values never leave the function's frame.
	EscLocal EscapeClass = iota
	// EscStored values are written into a heap structure reachable from a
	// local variable (field, slice element, map entry) but the structure
	// itself stays local as far as this function can see.
	EscStored
	// EscEscaped values leave the function: returned, assigned through a
	// parameter/receiver/global, sent on a channel, or captured by a
	// function literal that itself escapes (go/defer/stored).
	EscEscaped
)

func (c EscapeClass) String() string {
	switch c {
	case EscLocal:
		return "local"
	case EscStored:
		return "stored"
	default:
		return "escaped"
	}
}

// EscapeInfo is one variable's escape classification with the nodes that
// raised it above local.
type EscapeInfo struct {
	Class EscapeClass
	// Sites are the nodes where the variable was stored or escaped.
	Sites []ast.Node
}

// basicValued reports whether an expression's type is a basic value (int,
// bool, float, string): copying it cannot alias the source's memory.
func basicValued(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, basic := tv.Type.Underlying().(*types.Basic)
	return basic
}

// Escapes computes the escape class of every local variable of a function
// body, intra-procedurally and flow-insensitively: stores build edges in a
// small alias graph (v stored into w), and a variable escapes when its
// value can reach a return, a channel send, a non-local store target, or an
// escaping closure. Passing a variable as a plain call argument does NOT
// escape it here — visible retention is the stores and returns this
// function performs; analyzers that distrust callees add their own rules.
func Escapes(pkg *Package, fnType *ast.FuncType, body *ast.BlockStmt) map[*types.Var]*EscapeInfo {
	out := map[*types.Var]*EscapeInfo{}
	get := func(v *types.Var) *EscapeInfo {
		e := out[v]
		if e == nil {
			e = &EscapeInfo{Class: EscLocal}
			out[v] = e
		}
		return e
	}
	// storedInto[v] = set of vars whose structures v was stored into.
	storedInto := map[*types.Var]map[*types.Var]bool{}
	raise := func(v *types.Var, c EscapeClass, site ast.Node) {
		e := get(v)
		if c > e.Class {
			e.Class = c
		}
		e.Sites = append(e.Sites, site)
	}
	// params marks parameters and receivers: storing into their structure
	// escapes the stored value.
	params := map[*types.Var]bool{}
	if fnType != nil && fnType.Params != nil {
		for _, f := range fnType.Params.List {
			for _, name := range f.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					params[v] = true
				}
			}
		}
	}

	rootVar := func(e ast.Expr) *types.Var {
		obj := rootObject(pkg, e)
		if v, ok := obj.(*types.Var); ok {
			return v
		}
		return nil
	}

	// escapingFuncLits are literals used in go/defer statements or stored;
	// their captured variables escape. Immediately-invoked or locally-
	// called literals keep captures local.
	escapingLits := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				escapingLits[fl] = true
			}
		case *ast.DeferStmt:
			if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				escapingLits[fl] = true
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if fl, ok := ast.Unparen(r).(*ast.FuncLit); ok {
					escapingLits[fl] = true
				}
			}
		}
		return true
	})

	litStack := []*ast.FuncLit{}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			litStack = append(litStack, s)
			ast.Inspect(s.Body, walk)
			litStack = litStack[:len(litStack)-1]
			return false
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if basicValued(pkg, r) {
					// A basic-typed result (int, bool, string) is a value
					// copy: returning *b.v does not leak b.
					continue
				}
				if v := rootVar(r); v != nil {
					raise(v, EscEscaped, s)
				}
			}
		case *ast.SendStmt:
			if !basicValued(pkg, s.Value) {
				if v := rootVar(s.Value); v != nil {
					raise(v, EscEscaped, s)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				rv := (*types.Var)(nil)
				if rhs != nil {
					rv = rootVar(rhs)
				}
				switch ast.Unparen(lhs).(type) {
				case *ast.Ident:
					// plain rebinding: no escape
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					lv := rootVar(lhs)
					if rv == nil {
						continue
					}
					switch {
					case lv == nil:
						// store through a global or complex expression
						raise(rv, EscEscaped, s)
					case params[lv] || get(lv).Class == EscEscaped:
						raise(rv, EscEscaped, s)
					default:
						raise(rv, EscStored, s)
						set := storedInto[rv]
						if set == nil {
							set = map[*types.Var]bool{}
							storedInto[rv] = set
						}
						set[lv] = true
					}
				}
			}
		case *ast.Ident:
			// A variable declared outside an escaping literal but used
			// inside it is captured and escapes with the closure.
			for _, lit := range litStack {
				if !escapingLits[lit] {
					continue
				}
				if v, ok := pkg.Info.Uses[s].(*types.Var); ok && !v.IsField() && v.Pos() < lit.Pos() {
					raise(v, EscEscaped, s)
					break
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)

	// Propagate: if v was stored into w and w later escapes, v escapes.
	for changed := true; changed; {
		changed = false
		for v, targets := range storedInto {
			if get(v).Class == EscEscaped {
				continue
			}
			for w := range targets {
				if params[w] || get(w).Class == EscEscaped {
					get(v).Class = EscEscaped
					changed = true
					break
				}
			}
		}
	}
	return out
}
